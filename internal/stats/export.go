package stats

import (
	"encoding/csv"
	"errors"
	"io"
	"strconv"
)

// WriteCSV dumps raw completions as CSV (flow id, size, start/end in
// nanoseconds, fct in microseconds) for external analysis/plotting.
// A spilling collector has no raw log to dump and returns an error.
func (c *Collector) WriteCSV(w io.Writer) error {
	if c.sp != nil {
		return errors.New("stats: WriteCSV on a spilling collector")
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"flow", "size_bytes", "start_ns", "end_ns", "fct_us"}); err != nil {
		return err
	}
	for _, r := range c.records {
		rec := []string{
			strconv.FormatUint(uint64(r.FlowID), 10),
			strconv.FormatInt(r.Size, 10),
			strconv.FormatInt(int64(r.Start)/1000, 10),
			strconv.FormatInt(int64(r.End)/1000, 10),
			strconv.FormatFloat(r.FCT().Micros(), 'f', 3, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

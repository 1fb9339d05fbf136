package transport

import "ppt/internal/netsim"

// AckMeta is the payload of a low-loop ACK: the opportunistic ranges it
// acknowledges. lowloop's receiver, which answers every tail-sending
// transport (ppt and its ablations, swift+ppt, hpcc+ppt, RC3 and the
// §2.3 oracle), attaches one to every low-loop ACK, and lowloop's Loop
// folds it. It rides in Packet.Meta; the cumulative acknowledgment
// itself rides in Packet.Seq.
//
// Producers draw metas from the run pool (GetAckMeta) and, because
// reuse is dirty, set every field. FoldLowAck consumes them and returns
// them to the pool.
type AckMeta struct {
	PoolNode

	// LowSeqs are the byte offsets of the opportunistic (low-loop) data
	// packets this low-priority ACK covers; LowN of them are valid. The
	// receiver coalesces two opportunistic arrivals per ACK, or, on
	// RC3's 1:1 clock, acknowledges each alone.
	LowSeqs [2]int64
	LowLens [2]int32
	LowN    int
}

var ackMetaPool = NewPoolKey("transport.ackmeta")

func newAckMeta() *AckMeta { return &AckMeta{} }

// GetAckMeta draws a meta from env's pool.
func GetAckMeta(env *Env) *AckMeta { return PoolFor(env, ackMetaPool, newAckMeta).Get() }

// FoldLowAck adds the ranges a low-loop ACK acknowledges to skip and
// returns the ACK's meta to env's pool. It reports false for an ACK that
// carries no meta.
func FoldLowAck(env *Env, pkt *netsim.Packet, skip *IntervalSet) bool {
	meta, ok := pkt.Meta.(*AckMeta)
	if !ok {
		return false
	}
	for i := 0; i < meta.LowN; i++ {
		skip.Add(meta.LowSeqs[i], meta.LowSeqs[i]+int64(meta.LowLens[i]))
	}
	pkt.Meta = nil
	PoolFor(env, ackMetaPool, newAckMeta).Put(meta)
	return true
}

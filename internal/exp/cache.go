package exp

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"ppt/internal/workload"
)

// This file builds the canonical cell descriptor the result cache
// hashes into content addresses (DESIGN.md §7.8). Every cached cell is
// an execute() cell, so specDesc is the only descriptor. The ground
// rule: a descriptor names every input that can change a cell's
// Summary or extras, and nothing else.

// unkeyed are the inputs specDesc leaves out, by type and field: the
// engine knobs, which the golden matrix and the differentials prove
// outcome-invisible (a result computed at -shards=4 must hit when
// replayed at -shards=1), and the observer's reader, which is code and
// which the observer's tag keys.
var unkeyed = []string{"exp.runSpec.shards", "exp.runSpec.spillChunk", "topo.Config.Shards", "exp.observer.arm"}

var distType = reflect.TypeOf((*workload.Dist)(nil))

// specDesc is the canonical descriptor of one execute() cell: one walk
// over its runSpec that writes every field by name, in source order,
// but the unkeyed ones. That is the fabric (dimensions, switch config,
// RTO floor), the protocol value with its concrete type (a protocol's
// switch needs are a function of its type, so the value pins them), the
// workload, the send buffer and the observer's tag, which names its
// extras. Floats are written by their IEEE-754 bits, which is exact and
// distinguishes everything == conflates (-0 vs +0, NaN payloads). The
// distribution is written by name. Any other set func, map, pointer,
// slice or channel panics, which fails the cell: nothing in the
// descriptor could pin what it holds. A new field
// anywhere in a cell's inputs changes every descriptor, which safely
// invalidates (keys just stop matching old entries).
func specDesc(spec runSpec) string {
	var b strings.Builder
	writeDesc(&b, reflect.ValueOf(spec))
	return b.String()
}

func writeDesc(b *strings.Builder, v reflect.Value) {
	t := v.Type()
	if t == distType {
		b.WriteString(strconv.Quote(v.Elem().FieldByName("Name").String()))
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		b.WriteString(strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		b.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(b, "%#x", math.Float64bits(v.Float()))
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()))
	case reflect.Struct:
		b.WriteByte('{')
		for i := range t.NumField() {
			if slices.Contains(unkeyed, t.String()+"."+t.Field(i).Name) {
				continue
			}
			b.WriteString(t.Field(i).Name + "=")
			writeDesc(b, v.Field(i))
			b.WriteByte(' ')
		}
		b.WriteByte('}')
	case reflect.Interface:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		b.WriteString(v.Elem().Type().PkgPath() + "." + v.Elem().Type().Name())
		writeDesc(b, v.Elem())
	case reflect.Func, reflect.Map, reflect.Pointer, reflect.Slice, reflect.Chan:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		fallthrough
	default:
		panic(fmt.Sprintf("exp: no cache key can pin a cell input of type %s", t))
	}
}

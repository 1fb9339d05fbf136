package transport

// AckMeta is the acknowledgment payload shared by the DCTCP-family
// transports (DCTCP, PPT, RC3, PIAS, Swift). It rides in Packet.Meta on
// Ack packets; the cumulative acknowledgment itself rides in Packet.Seq.
//
// The embedded PoolNode lets producers draw AckMetas from an Env pool
// (see PoolFor); a consumer that reads the fields and returns the meta
// closes the loop, while consumers that never Put simply leave the meta
// to the garbage collector — dirty reuse means a pooled producer must
// set every field on each Get.
type AckMeta struct {
	PoolNode

	// LowSeqs are the byte offsets of the opportunistic (low-loop) data
	// packets this low-priority ACK covers; LowN of them are valid.
	// lowloop's receiver coalesces two opportunistic arrivals per ACK.
	LowSeqs [2]int64
	LowLens [2]int32
	LowN    int
}

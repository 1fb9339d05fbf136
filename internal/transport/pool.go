package transport

import "fmt"

// This file is the framework half of the flow-path pooling introduced
// for high-flow-count runs: a deterministic, run-scoped freelist for
// endpoint structs, mirroring netsim.PacketPool (and deliberately NOT a
// sync.Pool, for the same reproducibility reasons documented there).
// Protocols opt in per struct type; everything else keeps allocating.
//
// Ownership rules (see DESIGN.md §7.2):
//
//   - A pooled struct is owned by exactly one party at a time: the pool
//     (between flows) or the protocol (while its flow is bound).
//   - Env.Complete unbinds both endpoints and hands any endpoint
//     implementing EndpointRecycler back to its pool. By that point the
//     protocol must have stopped every pending timer whose callback
//     references the struct — a stale timer firing into a recycled,
//     re-initialized endpoint would corrupt an unrelated flow.
//   - Returning the same struct twice panics (double-free guard), just
//     like PacketPool.Free.

// PoolNode is the embeddable bookkeeping for pooled structs. Embedding
// it (by value) makes a struct satisfy Poolable.
type PoolNode struct {
	inPool bool
}

func (n *PoolNode) poolNode() *PoolNode { return n }

// Poolable is satisfied by pointer-to-struct types that embed PoolNode.
type Poolable interface {
	poolNode() *PoolNode
}

// Pool is a deterministic freelist of T. The zero value is unusable;
// build pools with PoolFor so they are scoped to one Env (one simulation
// run, one goroutine) and shared by every flow of that run.
type Pool[T Poolable] struct {
	newFn func() T
	free  []T

	// Allocs counts structs that had to be heap-allocated, Reuses counts
	// structs served from the freelist, Frees counts returns. In steady
	// state Reuses dominates and Allocs stays at the high-water mark of
	// concurrently live flows.
	Allocs uint64
	Reuses uint64
	Frees  uint64
}

// Get returns a struct from the freelist, or a fresh one. The caller
// must fully re-initialize it: pooled structs come back dirty.
func (p *Pool[T]) Get() T {
	if n := len(p.free); n > 0 {
		t := p.free[n-1]
		var zero T
		p.free[n-1] = zero
		p.free = p.free[:n-1]
		t.poolNode().inPool = false
		p.Reuses++
		return t
	}
	p.Allocs++
	return p.newFn()
}

// Put returns t to the freelist. The caller must not reference t again;
// returning the same struct twice panics, because two owners thinking
// they hold it would silently corrupt a later, unrelated flow.
func (p *Pool[T]) Put(t T) {
	n := t.poolNode()
	if n.inPool {
		panic("transport: pool double-free")
	}
	n.inPool = true
	p.free = append(p.free, t)
	p.Frees++
}

// Len reports the current freelist depth.
func (p *Pool[T]) Len() int { return len(p.free) }

// PoolKey identifies one pooled struct type within an Env. Each package
// declares its keys once at package level (the pointer identity is the
// key, so two packages can both pool a type called "sender" without
// colliding).
type PoolKey struct{ name string }

// NewPoolKey returns a fresh key; name is for diagnostics only.
func NewPoolKey(name string) *PoolKey { return &PoolKey{name: name} }

// PoolFor returns env's pool for key, creating it (with newFn as the
// allocator) on first use. Pools live exactly as long as their Env —
// one simulation run — so reuse never crosses runs and the race
// detector sees each pool touched by a single goroutine.
func PoolFor[T Poolable](env *Env, key *PoolKey, newFn func() T) *Pool[T] {
	if env.pools == nil {
		env.pools = make(map[*PoolKey]any)
	}
	if p, ok := env.pools[key]; ok {
		pool, ok := p.(*Pool[T])
		if !ok {
			panic(fmt.Sprintf("transport: pool key %q reused with a different type", key.name))
		}
		return pool
	}
	pool := &Pool[T]{newFn: newFn}
	env.pools[key] = pool
	return pool
}

// EndpointRecycler is implemented by pooled endpoints. Env.Complete
// calls Recycle on each endpoint it unbinds; the implementation must
// stop every pending timer that references the struct and return it to
// its pool.
type EndpointRecycler interface {
	Recycle(env *Env)
}

// hostKey names one per-host object: the package's key and the host.
type hostKey struct {
	key  *PoolKey
	host int32
}

// HostState returns env's object for key on host, building it with newFn
// on first use. It holds receiver-side state shared by every inbound
// flow of one host (a grant scheduler, a pull or credit pacer): the
// receiver half starts in the Env of the shard that owns the host, so
// only that shard's goroutine ever touches the object, and it lives as
// long as the run.
func HostState[T any](env *Env, key *PoolKey, host int32, newFn func() T) T {
	k := hostKey{key, host}
	if v, ok := env.hostState[k]; ok {
		return v.(T)
	}
	if env.hostState == nil {
		env.hostState = make(map[hostKey]any)
	}
	v := newFn()
	env.hostState[k] = v
	return v
}

package truenorth

// This file partitions a chip into shards that Chip.Tick evaluates and
// delivers on separate goroutines. A shard is a set of whole connected
// components of the chip's static core-to-core routing graph, so a spike
// emitted by a shard's core only ever lands on a core of the same shard:
// shards share no pending vector, dirty flag, core or PRNG stream during a
// tick. Off-chip sinks and the NoC observer's link counters are shared
// between components (every ensemble copy merges into the same class sinks),
// so shards running off the caller's goroutine accumulate them, and Stats,
// into private tallies that are added into the chip's totals after the join,
// in shard order. Every such counter is an integer sum, so the result is
// bit-identical to a serial tick — and to TickDense (docs/DETERMINISM.md,
// "Chip simulation: event-driven vs dense parity").

// fanOutWork is the smallest tick worth splitting across goroutines,
// counted in neuron evaluations: every neuron of a core with pending input
// plus the idle-active neurons of the other idle-active cores (tickWork).
// Smaller ticks run their shards in sequence on the caller. It was measured
// with BenchmarkChipTickFanOut, the floor set to 0, on a 2-vCPU KVM guest
// (Xeon, Go 1.24), 5 interleaved runs of GOMAXPROCS 1 vs 2: sharding was
// 0.75x at 256 neurons of work, 0.91x at 512, 1.07x (0.88-1.11) at 1024 and
// 1.30x (1.08-1.39) at 2048, the first size it won in every run.
const fanOutWork = 2048

// shard is one goroutine's share of a tick: the event-driven worklists of
// the cores of a set of whole routing components (Chip.coreShard).
type shard struct {
	// worklist holds the shard's dirty cores, in first-marked order.
	worklist []int
	// idle and faultEval are the shard's idle-active and force-fire-only
	// cores (see Chip.ensurePlans).
	idle      []int
	faultEval []int
	// ev is scratch: the shard's cores that spiked this tick.
	ev []int

	// stats, ext and noc are the private tallies of a shard run off the
	// caller's goroutine; they are zero outside Tick. noc shares
	// CoreSpikes with nocOf, the chip observer it was built for: each
	// entry is written only by the shard owning that core.
	stats Stats
	ext   []int64
	noc   *NoCStats
	nocOf *NoCStats
}

// tally is where a shard's tick adds its activity counters: the chip's own
// totals, or a shard's private ones.
type tally struct {
	stats *Stats
	ext   []int64
	noc   *NoCStats
}

// partition splits the cores into at most procs shards along the connected
// components of the routing graph compiled in ch.plans. Components are
// taken in order of their lowest core and cut into contiguous runs of about
// equal core count, so an ensemble whose copies occupy consecutive core
// ranges splits into consecutive blocks of copies. The worklists are rebuilt
// from the dirty flags.
func (ch *Chip) partition(procs int) {
	n := len(ch.cores)
	// Union-find whose roots are each component's lowest core.
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := range ch.plans {
		for _, d := range ch.plans[i].dests {
			a, b := find(int32(i)), find(d.Core)
			if a > b {
				a, b = b, a
			}
			parent[b] = a
		}
	}
	// Number components in order of their lowest core.
	comp := make([]int32, n)
	var sizes []int
	for i := range comp {
		r := find(int32(i))
		if r == int32(i) {
			comp[i] = int32(len(sizes))
			sizes = append(sizes, 0)
		} else {
			comp[i] = comp[r]
		}
		sizes[comp[i]]++
	}
	w := max(min(procs, len(sizes)), 1)
	// Component k goes to the shard its core-count midpoint falls in. The
	// map is monotone; shards no midpoint falls in are dropped.
	shardOf := make([]int32, len(sizes))
	next, last, cum := int32(-1), -1, 0
	for k, s := range sizes {
		if b := min((2*cum+s)*w/(2*n), w-1); b != last {
			last = b
			next++
		}
		shardOf[k] = next
		cum += s
	}
	ch.shards = make([]*shard, max(next+1, 1))
	for i := range ch.shards {
		ch.shards[i] = &shard{}
	}
	ch.coreShard = make([]int32, n)
	for i := range comp {
		ch.coreShard[i] = shardOf[comp[i]]
	}
	ch.shardProcs = procs
	for i, d := range ch.dirty {
		if d {
			sh := ch.shards[ch.coreShard[i]]
			sh.worklist = append(sh.worklist, i)
		}
	}
}

// clearWorklists empties every shard's worklist; the caller clears the dirty
// flags.
func (ch *Chip) clearWorklists() {
	for _, sh := range ch.shards {
		sh.worklist = sh.worklist[:0]
	}
}

// tickWork counts the neuron evaluations of the coming tick, stopping once
// the fan-out floor is reached.
func (ch *Chip) tickWork() int {
	work := 0
	for _, sh := range ch.shards {
		for _, i := range sh.worklist {
			work += ch.cores[i].Neurons
		}
		for _, i := range sh.idle {
			if !ch.dirty[i] {
				work += len(ch.corePlans[i].idle)
			}
		}
		if work >= fanOutWork {
			break
		}
	}
	return work
}

// private returns the shard's private tally, sized to the chip's current
// sinks and observer.
func (sh *shard) private(ch *Chip) tally {
	if len(sh.ext) != len(ch.extCounts) {
		sh.ext = make([]int64, len(ch.extCounts))
	}
	if sh.nocOf != ch.noc {
		sh.noc, sh.nocOf = nil, ch.noc
		if ch.noc != nil {
			sh.noc = &NoCStats{
				place:      ch.noc.place,
				CoreSpikes: ch.noc.CoreSpikes,
				HLink:      make([]int64, len(ch.noc.HLink)),
				VLink:      make([]int64, len(ch.noc.VLink)),
			}
		}
	}
	return tally{stats: &sh.stats, ext: sh.ext, noc: sh.noc}
}

// mergeInto adds the shard's private tallies into the chip's totals and
// zeroes them.
func (sh *shard) mergeInto(ch *Chip) {
	ch.stats.Spikes += sh.stats.Spikes
	ch.stats.SynEvents += sh.stats.SynEvents
	sh.stats = Stats{}
	for k, v := range sh.ext {
		if v != 0 {
			ch.extCounts[k] += v
			sh.ext[k] = 0
		}
	}
	if s := sh.noc; s != nil && s.Spikes != 0 {
		d := ch.noc
		d.Spikes += s.Spikes
		d.Hops += s.Hops
		s.Spikes, s.Hops = 0, 0
		for k, v := range s.HLink {
			if v != 0 {
				d.HLink[k] += v
				s.HLink[k] = 0
			}
		}
		for k, v := range s.VLink {
			if v != 0 {
				d.VLink[k] += v
				s.VLink[k] = 0
			}
		}
	}
}

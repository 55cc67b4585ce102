package network

// White-box tests of the packet engine's storage discipline: the ring
// deques must bound their backing arrays by peak queue depth (the
// pre-ring code leaked the popped prefix of every link queue via [1:]
// reslicing, keeping all packets that ever crossed a link reachable for
// the whole run), the packet arena must recycle delivered packets, and a
// reused PacketSim must re-run with zero heap allocations.

import (
	"testing"

	"multitree/internal/collective"
	"multitree/internal/topology"
)

func lineTopo3(t *testing.T) *topology.Topology {
	t.Helper()
	c := topology.NewCustom("line3", 3, 0)
	cfg := topology.DefaultLinkConfig()
	c.Link(0, 1, cfg).Link(1, 2, cfg)
	topo, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// chainSchedule builds a rounds-long pipeline around a 4-node directed
// ring: each step forwards the flow one hop and depends on the previous
// step, so exactly one transfer's packets are in flight at a time while
// the total packet count grows with rounds. Its one-hop packets never
// hold an arena record or schedule an arrival; lineChain's do.
func chainSchedule(t *testing.T, elems, rounds int) *collective.Schedule {
	t.Helper()
	c := topology.NewCustom("ring4", 4, 0)
	cfg := topology.DefaultLinkConfig()
	c.Link(0, 1, cfg).Link(1, 2, cfg).Link(2, 3, cfg).Link(3, 0, cfg)
	topo, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := collective.NewSchedule("chain", topo, elems, 1)
	var prev collective.TransferID
	step := int32(1)
	for r := 0; r < rounds; r++ {
		for hop := 0; hop < 4; hop++ {
			tr := collective.Transfer{
				Src: topology.NodeID(hop), Dst: topology.NodeID((hop + 1) % 4),
				Op: collective.Gather, Flow: 0, Step: step,
			}
			var deps []collective.TransferID
			if step > 1 {
				deps = []collective.TransferID{prev}
			}
			prev = s.Add(tr, deps, nil)
			step++
		}
	}
	return s
}

// lineChain builds n chained 0->2 transfers on a 3-node line: each
// depends on the one before and enters the next lockstep step. Every
// packet crosses two hops, so the pipeline exercises every hot-path event
// kind (release, serialization-done, arrive, step entry, delivery) and
// the packet arena.
func lineChain(t *testing.T, elems, n int) *collective.Schedule {
	t.Helper()
	s := collective.NewSchedule("line-chain", lineTopo3(t), elems, n)
	var prev []collective.TransferID
	for f := int32(0); f < int32(n); f++ {
		prev = []collective.TransferID{s.Add(collective.Transfer{
			Src: 0, Dst: 2, Op: collective.Gather, Flow: f, Step: f + 1,
		}, prev, nil)}
	}
	return s
}

// totalPackets counts the data packets a schedule injects under cfg.
func totalPackets(s *collective.Schedule, cfg Config) int {
	total := 0
	for i := range s.Transfers {
		payload := s.Bytes(&s.Transfers[i])
		if payload > 0 {
			total += int((payload + int64(cfg.PayloadBytes) - 1) / int64(cfg.PayloadBytes))
		}
	}
	return total
}

// TestLinkQueueCapacityBounded: a two-hop 1 MiB transfer crosses the
// second link as 4096+ packets, but backpressure keeps only ~bufCap/wire
// of them queued at once; the ring deque's backing array must be sized by
// that peak, not by the total packet count.
func TestLinkQueueCapacityBounded(t *testing.T) {
	topo := lineTopo3(t)
	s := collective.NewSchedule("unit", topo, (1<<20)/4, 1)
	s.Add(collective.Transfer{Src: 0, Dst: 2, Op: collective.Gather, Flow: 0, Step: 1}, nil, nil)
	cfg := DefaultConfig()
	cfg.Lockstep = false
	sim, err := NewPacketSim(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	total := totalPackets(s, cfg)
	if total < 4096 {
		t.Fatalf("test needs a multi-thousand-packet transfer, got %d", total)
	}
	// Peak depth on the downstream link is capped by the upstream input
	// buffer: bufCap/wire packets plus one in flight, rounded to the next
	// power of two by the ring.
	ps := &sim.ps
	wire := int64(cfg.PayloadBytes + cfg.FlitBytes)
	maxDepth := ps.bufCap/wire + 2
	bound := 8
	for int64(bound) < 2*maxDepth {
		bound *= 2
	}
	secondLink := ps.paths[0][1]
	if got := cap(ps.links[secondLink].queue.buf); got > bound {
		t.Errorf("downstream ring capacity %d exceeds backpressure bound %d (total packets %d)",
			got, bound, total)
	}
}

// TestPacketArenaRecycled: packets hold arena records only between hops.
// Across a long pipeline of two-hop transfers the arena must stay far
// below the total number of packets ever injected — freed records are
// reused, not abandoned — and a one-hop pipeline must never touch it.
func TestPacketArenaRecycled(t *testing.T) {
	for _, c := range []struct {
		name   string
		s      *collective.Schedule
		minLen int // smallest arena that shows the records are used
		maxDiv int // arena bound as a divisor of the total packets; 0 for none
	}{
		{"two-hop", lineChain(t, (1<<20)/4, 32), 1, 4}, // 128 packets per transfer
		{"one-hop", chainSchedule(t, (64<<10)/4, 8), 0, 0},
	} {
		cfg := DefaultConfig()
		sim, err := NewPacketSim(c.s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		total := totalPackets(c.s, cfg)
		maxLen := 0
		if c.maxDiv > 0 {
			maxLen = total / c.maxDiv
		}
		if arena := len(sim.ps.pkts); arena < c.minLen || arena > maxLen {
			t.Errorf("%s: arena holds %d slots for %d total packets, want %d..%d",
				c.name, arena, total, c.minLen, maxLen)
		}
	}
}

// TestPacketEngineSteadyStateAllocs: after the first run has grown every
// backing array to its high-water mark, re-running the simulation
// performs zero heap allocations.
func TestPacketEngineSteadyStateAllocs(t *testing.T) {
	for _, s := range []*collective.Schedule{chainSchedule(t, (64<<10)/4, 4), lineChain(t, (64<<10)/4, 16)} {
		sim, err := NewPacketSim(s, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		first, err := sim.Run() // warm-up: grows heap, arena, rings
		if err != nil {
			t.Fatal(err)
		}
		warmCycles := first.Cycles
		allocs := testing.AllocsPerRun(3, func() {
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles != warmCycles {
				t.Fatalf("rerun finished in %d cycles, warm-up in %d", res.Cycles, warmCycles)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state event loop allocates %.1f per run, want 0", s.Algorithm, allocs)
		}
	}
}

// TestPacketSimMatchesSimulatePackets: the reusable simulator and the
// one-shot entry point are the same engine, run after run.
func TestPacketSimMatchesSimulatePackets(t *testing.T) {
	s := chainSchedule(t, (16<<10)/4, 2)
	cfg := DefaultConfig()
	oneShot, err := SimulatePackets(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewPacketSim(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != oneShot.Cycles {
			t.Fatalf("run %d: %d cycles, SimulatePackets %d", run, res.Cycles, oneShot.Cycles)
		}
		for i := range res.TransferDone {
			if res.TransferDone[i] != oneShot.TransferDone[i] {
				t.Fatalf("run %d: transfer %d done at %d, want %d",
					run, i, res.TransferDone[i], oneShot.TransferDone[i])
			}
		}
	}
}

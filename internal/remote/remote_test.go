package remote

import (
	"testing"

	"latr/internal/cost"
	"latr/internal/kernel"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/topo"
)

// testKernel builds a small machine under the instant policy (no
// policy-induced timing) with the backend attached.
func testKernel(cfg Config) (*kernel.Kernel, *Backend) {
	spec := topo.Custom(2, 2)
	k := kernel.New(spec, cost.Default(spec), kernel.NewInstantPolicy(), kernel.Options{Seed: 5})
	b := New(cfg)
	b.Attach(k)
	return k, b
}

// drive runs fn inside a thread on core so the backend sees a real
// *kernel.Core, then drains the engine.
func drive(k *kernel.Kernel, core topo.CoreID, fn func(c *kernel.Core, th *kernel.Thread, done func())) {
	p := k.NewProcess()
	ran := false
	p.Spawn(core, kernel.Loop(func(*kernel.Thread) kernel.Op {
		if ran {
			return kernel.Op{}
		}
		ran = true
		return kernel.Call(fn)
	}))
	k.Run(100 * sim.Millisecond)
}

func key(k *kernel.Kernel, n int) (*kernel.MM, pt.VPN) {
	return k.Processes()[0].MM, pt.VPN(n)
}

func TestStoreLatencyUnloaded(t *testing.T) {
	k, b := testKernel(Config{})
	m := cost.Default(topo.Custom(2, 2))
	var issued, completed sim.Time
	drive(k, 0, func(c *kernel.Core, th *kernel.Thread, done func()) {
		mm, vpn := key(k, 1)
		issued = k.Now()
		b.Store(c, mm, vpn, func() {
			completed = k.Now()
			done()
		})
	})
	// Unloaded pipeline: post, serialize onto the wire, propagate, remote
	// service — each stage idle when the page arrives.
	want := m.RDMAPostCost + m.RDMAPagePeriod + m.RDMAWriteLatency + m.RemoteServePeriod
	if got := completed - issued; got != want {
		t.Fatalf("unloaded store latency = %v, want %v", got, want)
	}
	if b.InFlight() != 0 {
		t.Fatalf("in-flight count %d after completion", b.InFlight())
	}
	if b.FramesInUse() != 1 {
		t.Fatalf("frames in use = %d, want 1", b.FramesInUse())
	}
}

func TestNICQueueingSerializes(t *testing.T) {
	k, b := testKernel(Config{})
	m := cost.Default(topo.Custom(2, 2))
	var first, second sim.Time
	// Two stores posted in the same instant from two cores on node 0: the
	// second page queues behind the first on the node's NIC for exactly one
	// serialization period.
	mm := k.NewProcess().MM
	launch := func(core topo.CoreID, vpn pt.VPN, out *sim.Time) {
		done := false
		k.Processes()[0].Spawn(core, kernel.Loop(func(*kernel.Thread) kernel.Op {
			if done {
				return kernel.Op{}
			}
			done = true
			return kernel.Call(func(c *kernel.Core, th *kernel.Thread, opDone func()) {
				b.Store(c, mm, vpn, func() {
					*out = k.Now()
					opDone()
				})
			})
		}))
	}
	launch(0, 1, &first)
	launch(1, 2, &second)
	k.Run(100 * sim.Millisecond)
	if first == 0 || second == 0 {
		t.Fatal("stores did not complete")
	}
	lo, hi := first, second
	if lo > hi {
		lo, hi = hi, lo
	}
	if got := hi - lo; got != m.RDMAPagePeriod {
		t.Fatalf("concurrent stores completed %v apart, want one NIC serialization period %v", got, m.RDMAPagePeriod)
	}
	if k.Metrics.Counter("remote.store") != 2 {
		t.Fatalf("store count = %d", k.Metrics.Counter("remote.store"))
	}
}

func TestLoadChainsBehindInflightStore(t *testing.T) {
	k, b := testKernel(Config{})
	var storeDone, loadDone sim.Time
	drive(k, 0, func(c *kernel.Core, th *kernel.Thread, done func()) {
		mm, vpn := key(k, 7)
		pending := 2
		finish := func() {
			pending--
			if pending == 0 {
				done()
			}
		}
		b.Store(c, mm, vpn, func() {
			storeDone = k.Now()
			finish()
		})
		// Issued while the write is still on the wire: must not read stale
		// remote memory — it parks until the write's completion event.
		b.Load(c, mm, vpn, func() {
			loadDone = k.Now()
			finish()
		})
	})
	if k.Metrics.Counter("remote.inflight_waits") != 1 {
		t.Fatalf("inflight_waits = %d, want 1", k.Metrics.Counter("remote.inflight_waits"))
	}
	if !(loadDone > storeDone) {
		t.Fatalf("load completed at %v, not after the in-flight store at %v", loadDone, storeDone)
	}
	if b.FramesInUse() != 0 {
		t.Fatalf("frames in use = %d after load consumed the page", b.FramesInUse())
	}
	if b.InFlight() != 0 {
		t.Fatalf("in-flight = %d after drain", b.InFlight())
	}
}

func TestPoolExhaustionFallsBackToDisk(t *testing.T) {
	k, b := testKernel(Config{RemoteFrames: 1})
	m := cost.Default(topo.Custom(2, 2))
	var fastLoad, slowLoad sim.Time
	drive(k, 0, func(c *kernel.Core, th *kernel.Thread, done func()) {
		mm, _ := key(k, 0)
		// First store claims the only remote frame; the second overflows to
		// the disk path.
		b.Store(c, mm, 1, func() {
			b.Store(c, mm, 2, func() {
				t0 := k.Now()
				b.Load(c, mm, 1, func() {
					fastLoad = k.Now() - t0
					t1 := k.Now()
					b.Load(c, mm, 2, func() {
						slowLoad = k.Now() - t1
						done()
					})
				})
			})
		})
	})
	if got := k.Metrics.Counter("remote.pool_full"); got != 1 {
		t.Fatalf("pool_full = %d, want 1", got)
	}
	if slowLoad <= fastLoad {
		t.Fatalf("disk-path load (%v) not slower than remote load (%v)", slowLoad, fastLoad)
	}
	if slowLoad < m.RemoteFallbackPerPage {
		t.Fatalf("disk-path load %v under the fallback floor %v", slowLoad, m.RemoteFallbackPerPage)
	}
	if b.FramesInUse() != 0 {
		t.Fatalf("frames in use = %d after both loads", b.FramesInUse())
	}
}

func TestDropReleasesPool(t *testing.T) {
	k, b := testKernel(Config{RemoteFrames: 1})
	drive(k, 0, func(c *kernel.Core, th *kernel.Thread, done func()) {
		mm, vpn := key(k, 3)
		b.Store(c, mm, vpn, func() {
			b.Drop(mm, vpn)
			// The freed frame must be claimable again, not leak.
			b.Store(c, mm, vpn+1, done)
		})
	})
	if got := k.Metrics.Counter("remote.pool_full"); got != 0 {
		t.Fatalf("pool_full = %d after a drop freed the frame", got)
	}
	if k.Metrics.Counter("remote.dropped") != 1 {
		t.Fatalf("dropped = %d, want 1", k.Metrics.Counter("remote.dropped"))
	}
	if b.FramesInUse() != 1 {
		t.Fatalf("frames in use = %d, want 1 (second store)", b.FramesInUse())
	}
}

func TestDeterministicFingerprint(t *testing.T) {
	run := func() uint64 {
		k, b := testKernel(Config{})
		drive(k, 0, func(c *kernel.Core, th *kernel.Thread, done func()) {
			mm, _ := key(k, 0)
			b.Store(c, mm, 1, func() {
				b.Load(c, mm, 1, func() {
					b.Store(c, mm, 2, done)
				})
			})
		})
		return k.Metrics.Fingerprint()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identical runs diverge: %016x vs %016x", a, b)
	}
}

func TestValidateRejectsNegativePool(t *testing.T) {
	if err := (Config{RemoteFrames: -1}).Validate(); err == nil {
		t.Fatal("negative RemoteFrames accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a negative pool")
		}
	}()
	New(Config{RemoteFrames: -1})
}

// TestCrashFailsOverToDisk is the chaos regression test for node death:
// the memory server dies with pages resident and a write still in
// flight. Every remote copy must fail over to its disk backup — loads
// after the crash complete at disk-class latency, the in-flight write's
// chained load drains cleanly, and no frame is leaked (the pool reads
// zero and never goes negative).
func TestCrashFailsOverToDisk(t *testing.T) {
	k, b := testKernel(Config{})
	m := cost.Default(topo.Custom(2, 2))
	var remoteLoad, diskLoad, chainedLoad sim.Time
	storeDone := false
	drive(k, 0, func(c *kernel.Core, th *kernel.Thread, done func()) {
		mm, _ := key(k, 0)
		b.Store(c, mm, 1, func() {
			b.Store(c, mm, 2, func() {
				// Baseline: a remote-resident load before any crash.
				t0 := k.Now()
				b.Load(c, mm, 1, func() {
					remoteLoad = k.Now() - t0
					// Page 3's write is on the wire when the server dies.
					b.Store(c, mm, 3, func() { storeDone = true })
					b.Crash()
					if got := b.FramesInUse(); got != 0 {
						t.Errorf("frames in use = %d immediately after crash, want 0", got)
					}
					// Chains behind the in-flight write, then reads the
					// failed-over disk copy.
					t2 := k.Now()
					b.Load(c, mm, 3, func() {
						chainedLoad = k.Now() - t2
						t1 := k.Now()
						b.Load(c, mm, 2, func() {
							diskLoad = k.Now() - t1
							done()
						})
					})
				})
			})
		})
	})
	if remoteLoad == 0 || diskLoad == 0 || chainedLoad == 0 {
		t.Fatal("not every load completed after the crash")
	}
	if !storeDone {
		t.Fatal("the in-flight write's completion never fired")
	}
	if diskLoad < m.RemoteFallbackPerPage {
		t.Fatalf("post-crash load %v under the disk floor %v; read a dead node's memory", diskLoad, m.RemoteFallbackPerPage)
	}
	if chainedLoad < m.RemoteFallbackPerPage {
		t.Fatalf("chained post-crash load %v under the disk floor %v", chainedLoad, m.RemoteFallbackPerPage)
	}
	if diskLoad <= remoteLoad {
		t.Fatalf("post-crash load (%v) not slower than the remote baseline (%v)", diskLoad, remoteLoad)
	}
	if k.Metrics.Counter("remote.crashes") != 1 {
		t.Fatalf("crashes = %d, want 1", k.Metrics.Counter("remote.crashes"))
	}
	// Pages 2 and 3 were remote-resident at crash time; page 1 had already
	// been consumed by its load.
	if got := k.Metrics.Counter("remote.crash_failover"); got != 2 {
		t.Fatalf("crash_failover = %d, want 2", got)
	}
	if k.Metrics.Counter("remote.inflight_waits") != 1 {
		t.Fatalf("inflight_waits = %d, want 1 (load chained on the dying write)", k.Metrics.Counter("remote.inflight_waits"))
	}
	if b.FramesInUse() != 0 {
		t.Fatalf("frames in use = %d after drain, want 0 (leak or double free)", b.FramesInUse())
	}
	if b.InFlight() != 0 {
		t.Fatalf("in-flight = %d after drain", b.InFlight())
	}
}

// TestCrashThenReuse: after a crash the replacement server's pool starts
// empty, so new stores claim fresh frames and the books stay balanced.
func TestCrashThenReuse(t *testing.T) {
	k, b := testKernel(Config{RemoteFrames: 2})
	drive(k, 0, func(c *kernel.Core, th *kernel.Thread, done func()) {
		mm, _ := key(k, 0)
		b.Store(c, mm, 1, func() {
			b.Store(c, mm, 2, func() {
				b.Crash()
				// Both frames were lost with the server; the new pool must
				// accept two fresh pages without hitting the cap.
				b.Store(c, mm, 10, func() {
					b.Store(c, mm, 11, func() {
						b.Load(c, mm, 10, func() {
							b.Load(c, mm, 11, done)
						})
					})
				})
			})
		})
	})
	if got := k.Metrics.Counter("remote.pool_full"); got != 0 {
		t.Fatalf("pool_full = %d after restart freed the pool, want 0", got)
	}
	if b.FramesInUse() != 0 {
		t.Fatalf("frames in use = %d after loads, want 0", b.FramesInUse())
	}
}

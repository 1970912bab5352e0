package pt

import (
	"testing"
	"testing/quick"

	"latr/internal/mem"
)

func TestMapWalkUnmap(t *testing.T) {
	p := New()
	vpn := PageOf(0x7f0000001000)
	if err := p.Map(vpn, 42, true); err != nil {
		t.Fatal(err)
	}
	e, ok := p.Walk(vpn, false)
	if !ok || e.PFN != 42 {
		t.Fatalf("Walk = %+v, %v", e, ok)
	}
	if !e.Accessed {
		t.Fatal("walk did not set A bit")
	}
	old, ok := p.Unmap(vpn)
	if !ok || old.PFN != 42 {
		t.Fatalf("Unmap = %+v, %v", old, ok)
	}
	if _, ok := p.Walk(vpn, false); ok {
		t.Fatal("walk after unmap should fault")
	}
	if p.Mapped() != 0 {
		t.Fatalf("Mapped = %d", p.Mapped())
	}
}

func TestDoubleMapRejected(t *testing.T) {
	p := New()
	if err := p.Map(1, 1, true); err != nil {
		t.Fatal(err)
	}
	if err := p.Map(1, 2, true); err == nil {
		t.Fatal("double map accepted")
	}
}

func TestDirtyBitOnlyOnWrite(t *testing.T) {
	p := New()
	p.Map(5, 9, true)
	e, _ := p.Walk(5, false)
	if e.Dirty {
		t.Fatal("read set D bit")
	}
	e, _ = p.Walk(5, true)
	if !e.Dirty {
		t.Fatal("write did not set D bit")
	}
}

func TestWriteToReadOnlyFaults(t *testing.T) {
	p := New()
	p.Map(7, 9, false)
	if _, ok := p.Walk(7, true); ok {
		t.Fatal("write to read-only page should fault")
	}
	if _, ok := p.Walk(7, false); !ok {
		t.Fatal("read of read-only page should succeed")
	}
}

func TestNUMAHintFaults(t *testing.T) {
	p := New()
	p.Map(11, 3, true)
	if !p.SetNUMAHint(11, true) {
		t.Fatal("SetNUMAHint failed")
	}
	e, ok := p.Walk(11, false)
	if ok {
		t.Fatal("hinted page should fault")
	}
	if !e.NUMAHint || e.PFN != 3 {
		t.Fatalf("fault entry should carry hint info: %+v", e)
	}
	p.SetNUMAHint(11, false)
	if _, ok := p.Walk(11, false); !ok {
		t.Fatal("clearing hint should restore access")
	}
}

func TestGetDoesNotTouchADBits(t *testing.T) {
	p := New()
	p.Map(13, 4, true)
	p.Get(13)
	e, _ := p.Get(13)
	if e.Accessed || e.Dirty {
		t.Fatal("Get modified A/D bits")
	}
}

func TestReplaceForMigration(t *testing.T) {
	p := New()
	p.Map(17, 100, true)
	p.Walk(17, true) // set A+D
	old, ok := p.Replace(17, 200)
	if !ok || old.PFN != 100 || !old.Dirty {
		t.Fatalf("Replace old = %+v, %v", old, ok)
	}
	e, _ := p.Get(17)
	if e.PFN != 200 || e.Accessed || e.Dirty {
		t.Fatalf("replaced entry = %+v, want clean PFN 200", e)
	}
	if !e.Writable {
		t.Fatal("Replace dropped protection")
	}
}

func TestClearAccessed(t *testing.T) {
	p := New()
	p.Map(19, 5, true)
	if was, ok := p.ClearAccessed(19); !ok || was {
		t.Fatalf("fresh page A bit: was=%v ok=%v", was, ok)
	}
	p.Walk(19, false)
	if was, ok := p.ClearAccessed(19); !ok || !was {
		t.Fatal("A bit not observed set")
	}
	if was, _ := p.ClearAccessed(19); was {
		t.Fatal("A bit not cleared")
	}
}

func TestSetProtection(t *testing.T) {
	p := New()
	p.Map(23, 6, true)
	if !p.SetProtection(23, false) {
		t.Fatal("SetProtection failed")
	}
	if _, ok := p.Walk(23, true); ok {
		t.Fatal("write allowed after mprotect(PROT_READ)")
	}
	if p.SetProtection(999, false) {
		t.Fatal("SetProtection on unmapped page should fail")
	}
}

func TestWalkLevels(t *testing.T) {
	p := New()
	if got := p.WalkLevels(0); got != 1 {
		t.Fatalf("empty table walk levels = %d", got)
	}
	p.Map(0, 1, true)
	if got := p.WalkLevels(0); got != 4 {
		t.Fatalf("mapped walk levels = %d", got)
	}
	// A distant VA shares no interior tables.
	far := PageOf(0x7fff00000000)
	if got := p.WalkLevels(far); got != 1 && got != 2 {
		t.Fatalf("far walk levels = %d", got)
	}
}

func TestTableCountGrows(t *testing.T) {
	p := New()
	before := p.Tables()
	p.Map(PageOf(0x1000), 1, true)
	if p.Tables() <= before {
		t.Fatal("mapping did not allocate tables")
	}
}

func TestSparseAddresses(t *testing.T) {
	p := New()
	// Map pages scattered across the canonical lower half.
	vpns := []VPN{0, 1, 511, 512, PageOf(0x7f1234567000), PageOf(0x00005fffff000), 1 << 35}
	for i, v := range vpns {
		if err := p.Map(v, mem.PFN(i+1), true); err != nil {
			t.Fatalf("Map(%#x): %v", uint64(v), err)
		}
	}
	if p.Mapped() != len(vpns) {
		t.Fatalf("Mapped = %d, want %d", p.Mapped(), len(vpns))
	}
	for i, v := range vpns {
		e, ok := p.Get(v)
		if !ok || e.PFN != mem.PFN(i+1) {
			t.Fatalf("Get(%#x) = %+v, %v", uint64(v), e, ok)
		}
	}
}

func TestPropertyMapGetRoundTrip(t *testing.T) {
	p := New()
	mapped := map[VPN]mem.PFN{}
	if err := quick.Check(func(vpnRaw uint64, pfnRaw uint32) bool {
		vpn := VPN(vpnRaw % (1 << 36))
		pfn := mem.PFN(pfnRaw)
		if _, exists := mapped[vpn]; exists {
			old, ok := p.Unmap(vpn)
			if !ok || old.PFN != mapped[vpn] {
				return false
			}
			delete(mapped, vpn)
			return true
		}
		if err := p.Map(vpn, pfn, true); err != nil {
			return false
		}
		mapped[vpn] = pfn
		e, ok := p.Get(vpn)
		return ok && e.PFN == pfn && p.Mapped() == len(mapped)
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestVPNAddrRoundTrip(t *testing.T) {
	if err := quick.Check(func(raw uint64) bool {
		va := VA(raw &^ (PageSize - 1) % (1 << 48))
		return PageOf(va).Addr() == va-(va%PageSize)
	}, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkPageTableWalk times the hardware walk of a mapped page, which
// every TLB miss makes (apache-sweep maps fresh pages per request, so it
// walks on every access): 4,096 pages in four regions under different
// root slots, walked in turn.
func BenchmarkPageTableWalk(b *testing.B) {
	const pages = 1 << 12
	p := New()
	vpns := make([]VPN, pages)
	for i := range vpns {
		vpns[i] = VPN(i%4)<<27 | VPN(i/4)
		if err := p.Map(vpns[i], mem.PFN(i), true); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.Walk(vpns[i&(pages-1)], false); !ok {
			b.Fatal("mapped page faulted")
		}
	}
}

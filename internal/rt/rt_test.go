package rt

import (
	"runtime"
	"sync"
	"testing"

	"lsopc/internal/optics"
)

func TestPoolFieldReuseAndZeroing(t *testing.T) {
	p := NewPool()
	f := p.Field(8, 4)
	if f.W != 8 || f.H != 4 {
		t.Fatalf("leased shape %dx%d", f.W, f.H)
	}
	f.Fill(3.5)
	p.PutField(f)

	// Same dimensions: the recycled buffer must come back zeroed.
	g := p.Field(8, 4)
	if g.W != 8 || g.H != 4 {
		t.Fatalf("lease %dx%d", g.W, g.H)
	}
	if &g.Data[0] != &f.Data[0] {
		t.Fatal("free list did not recycle the returned buffer")
	}
	for i, v := range g.Data {
		if v != 0 {
			t.Fatalf("recycled field not zeroed at %d: %g", i, v)
		}
	}
	if leases, reuses := p.Stats(); leases != 2 || reuses != 1 {
		t.Fatalf("stats = %d leases / %d reuses, want 2 / 1", leases, reuses)
	}
}

func TestPoolCFieldReuseAndZeroing(t *testing.T) {
	p := NewPool()
	c := p.CField(4, 4)
	c.Data[5] = complex(1, 2)
	p.PutCField(c)

	d := p.CField(4, 4)
	if d.W != 4 || d.H != 4 {
		t.Fatalf("lease %dx%d", d.W, d.H)
	}
	if &d.Data[0] != &c.Data[0] {
		t.Fatal("free list did not recycle the returned buffer")
	}
	for i, v := range d.Data {
		if v != 0 {
			t.Fatalf("recycled cfield not zeroed at %d: %v", i, v)
		}
	}
}

// TestPoolKeepsBuffersAcrossGC: a returned buffer survives garbage
// collections, so the next lease of its shape is a reuse, not a fresh
// allocation.
func TestPoolKeepsBuffersAcrossGC(t *testing.T) {
	p := NewPool()
	f, c := p.Field(32, 32), p.CField(32, 32)
	p.PutField(f)
	p.PutCField(c)
	runtime.GC()
	runtime.GC()
	if g := p.Field(32, 32); &g.Data[0] != &f.Data[0] {
		t.Fatal("field lease after GC allocated instead of reusing the returned buffer")
	}
	if d := p.CField(32, 32); &d.Data[0] != &c.Data[0] {
		t.Fatal("cfield lease after GC allocated instead of reusing the returned buffer")
	}
	if leases, reuses := p.Stats(); leases != 4 || reuses != 2 {
		t.Fatalf("stats = %d leases / %d reuses, want 4 / 2", leases, reuses)
	}
}

func TestPoolDistinctSizesDoNotMix(t *testing.T) {
	p := NewPool()
	small := p.Field(4, 4)
	p.PutField(small)
	big := p.Field(8, 8)
	if len(big.Data) != 64 {
		t.Fatalf("big lease has %d elements", len(big.Data))
	}
	_, reuses := p.Stats()
	if reuses != 0 {
		t.Fatal("a 16-element buffer must not serve a 64-element lease")
	}
}

func TestPoolDistinctShapesDoNotMix(t *testing.T) {
	// Dimension keying: equal element counts with different shapes keep
	// separate free lists, so multi-resolution sessions never trade
	// buffers across transposed or re-factored shapes.
	p := NewPool()
	f := p.Field(8, 4)
	p.PutField(f)
	g := p.Field(4, 8)
	if g.W != 4 || g.H != 8 {
		t.Fatalf("lease %dx%d", g.W, g.H)
	}
	_, reuses := p.Stats()
	if reuses != 0 {
		t.Fatal("an 8x4 buffer must not serve a 4x8 lease")
	}
}

func TestPoolNilPutsAreSafe(t *testing.T) {
	p := NewPool()
	p.PutField(nil)
	p.PutCField(nil)
}

// BenchmarkPoolMixedSizeLeases exercises the multi-resolution lease
// pattern: a session alternating between fine-grid and coarse-grid
// scratch on every round. With dimension-keyed free lists the steady
// state serves every lease from the pool — the reported allocs/op is the
// regression gate for fallback allocations.
func BenchmarkPoolMixedSizeLeases(b *testing.B) {
	p := NewPool()
	const fine, coarse = 64, 16
	// Warm one buffer per (type, size) so the steady state only recycles.
	warm := func() {
		f := p.Field(fine, fine)
		fc := p.Field(coarse, coarse)
		c := p.CField(fine, fine)
		cc := p.CField(coarse, coarse)
		p.PutField(f)
		p.PutField(fc)
		p.PutCField(c)
		p.PutCField(cc)
	}
	warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm()
	}
}

func TestPoolConcurrentLeases(t *testing.T) {
	p := NewPool()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				f := p.Field(16, 16)
				c := p.CField(16, 16)
				f.Fill(1)
				c.Data[0] = 1
				p.PutField(f)
				p.PutCField(c)
			}
		}()
	}
	wg.Wait()
	leases, _ := p.Stats()
	if leases != 800 {
		t.Fatalf("leases = %d, want 800", leases)
	}
}

// testOptics returns a small distinct optics configuration per tag so
// memoization tests do not collide across test runs in one process.
func testOptics(kernels int) optics.Config {
	cfg := optics.Default(64, 32)
	cfg.Kernels = kernels
	return cfg
}

func TestOpticsBankMemoization(t *testing.T) {
	cfg := testOptics(3)
	a, err := OpticsBankFor(cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpticsBankFor(cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same configuration must share one kernel bank")
	}
	c, err := OpticsBankFor(cfg, 25, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different defocus must not share a bank")
	}
	bad := cfg
	bad.GridSize = 100 // not a power of two
	if _, err := OpticsBankFor(bad, 0, nil); err == nil {
		t.Fatal("invalid configuration accepted")
	}
}

func TestBankForMemoizationAndAccessors(t *testing.T) {
	cfg := testOptics(4)
	a, err := BankFor(cfg, 25, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BankFor(cfg, 25, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same preset must share one resource bank")
	}
	if a.GridSize() != cfg.GridSize || a.Optics() != cfg || a.DefocusNM() != 25 {
		t.Fatal("bank accessors wrong")
	}
	if a.Pool() != Shared {
		t.Fatal("BankFor must use the shared pool")
	}
	if a.Nominal() == nil || a.Defocus() == nil || a.RowPlan() == nil || a.ColPlan() == nil {
		t.Fatal("bank resources missing")
	}
	if r := a.Radius(); r < a.Nominal().Radius() || r < a.Defocus().Radius() {
		t.Fatal("bank radius must cover both kernel banks")
	}
}

func TestWrapBanksValidation(t *testing.T) {
	if _, err := wrapBanks(nil, nil, nil); err == nil {
		t.Fatal("nil banks accepted")
	}
	nom, err := OpticsBankFor(testOptics(2), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	other, err := OpticsBankFor(optics.Default(32, 64), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wrapBanks(nom, other, nil); err == nil {
		t.Fatal("mismatched grids accepted")
	}
	bk, err := wrapBanks(nom, nom, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bk.Pool() != Shared {
		t.Fatal("nil pool must default to Shared")
	}
}

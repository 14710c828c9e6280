package rt

import (
	"fmt"
	"sync"

	"lsopc/internal/engine"
	"lsopc/internal/fft"
	"lsopc/internal/optics"
)

// Bank is the immutable resource bank of one optical preset: the
// nominal and defocused SOCS kernel banks, the shared 1-D FFT plan for
// the preset's square grid (rows and columns alike), and the pool sessions lease their scratch from.
// Everything reachable from a Bank is immutable after construction (the
// pool and the coarse-bank memo are internally synchronised), so one
// Bank safely backs any number of concurrent sessions.
type Bank struct {
	cfg     optics.Config
	nominal *optics.Bank
	defocus *optics.Bank
	plan    *fft.Plan
	pool    *Pool
	coarse  memo[int, *Bank] // keyed by factor
}

// memo caches one build per key, including a failed build: the first
// caller runs it, concurrent first callers wait for that one run, and
// every later call returns its result.
type memo[K comparable, V any] struct {
	m sync.Map // K -> *memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

// get returns the memoized build for key, running build on first use.
func (m *memo[K, V]) get(key K, build func() (V, error)) (V, error) {
	e, ok := m.m.Load(key)
	if !ok {
		e, _ = m.m.LoadOrStore(key, &memoEntry[V]{})
	}
	me := e.(*memoEntry[V])
	me.once.Do(func() { me.v, me.err = build() })
	return me.v, me.err
}

// NewBank derives the full resource bank for the given optics
// configuration and defocus excursion. Kernel-bank synthesis is
// parallelised on eng (nil = serial); the result is independent of the
// engine. pool nil defaults to Shared.
func NewBank(cfg optics.Config, defocusNM float64, eng *engine.Engine, pool *Pool) (*Bank, error) {
	nom, err := OpticsBankFor(cfg, 0, eng)
	if err != nil {
		return nil, err
	}
	def, err := OpticsBankFor(cfg, defocusNM, eng)
	if err != nil {
		return nil, err
	}
	return wrapBanks(nom, def, pool)
}

// wrapBanks builds a resource bank around existing kernel banks. Both
// banks must share one grid size.
func wrapBanks(nominal, defocus *optics.Bank, pool *Pool) (*Bank, error) {
	if nominal == nil || defocus == nil {
		return nil, fmt.Errorf("rt: bank requires nominal and defocus kernel banks")
	}
	n := nominal.Cfg.GridSize
	if defocus.Cfg.GridSize != n {
		return nil, fmt.Errorf("rt: bank grids differ: %d vs %d", n, defocus.Cfg.GridSize)
	}
	if pool == nil {
		pool = Shared
	}
	return &Bank{
		cfg:     nominal.Cfg,
		nominal: nominal,
		defocus: defocus,
		plan:    fft.CachedPlan(n),
		pool:    pool,
	}, nil
}

// Optics returns the optics configuration the bank was derived for.
func (b *Bank) Optics() optics.Config { return b.cfg }

// GridSize returns the preset's grid edge in pixels.
func (b *Bank) GridSize() int { return b.cfg.GridSize }

// Nominal returns the best-focus kernel bank.
func (b *Bank) Nominal() *optics.Bank { return b.nominal }

// Defocus returns the defocused kernel bank.
func (b *Bank) Defocus() *optics.Bank { return b.defocus }

// Plan returns the shared 1-D FFT plan for the grid's rows and columns.
func (b *Bank) Plan() *fft.Plan { return b.plan }

// Pool returns the field pool sessions on this bank lease from.
func (b *Bank) Pool() *Pool { return b.pool }

// Radius returns the spectral band half-width covering both kernel
// banks — the band the session's pruned FFT passes restrict to.
func (b *Bank) Radius() int {
	r := b.nominal.Radius()
	if dr := b.defocus.Radius(); dr > r {
		r = dr
	}
	return r
}

// Coarse returns the resource bank of the factor×-downsampled grid,
// derived once per factor by spectral truncation of this bank's kernel
// banks (see optics.Bank.Coarse) and memoized on the parent. The coarse
// bank shares the parent's pool, so multi-resolution sessions recycle
// coarse-grid scratch through the same dimension-keyed free lists.
// factor 1 returns the bank itself.
func (b *Bank) Coarse(factor int) (*Bank, error) {
	if factor == 1 {
		return b, nil
	}
	return b.coarse.get(factor, func() (*Bank, error) {
		nom, err := b.nominal.Coarse(factor)
		if err != nil {
			return nil, err
		}
		def, err := b.defocus.Coarse(factor)
		if err != nil {
			return nil, err
		}
		return wrapBanks(nom, def, b.pool)
	})
}

// opticsKey identifies one memoized kernel bank. optics.Config is a
// struct of scalars, so the key is comparable.
type opticsKey struct {
	cfg       optics.Config
	defocusNM float64
}

var opticsCache memo[opticsKey, *optics.Bank]

// OpticsBankFor returns the process-wide shared kernel bank for the
// given configuration and defocus, synthesising it on first use.
// Kernel construction is deterministic and independent of the engine,
// so memoizing across callers changes nothing but the sharing: N
// pipelines at one preset derive the bank once instead of N times.
func OpticsBankFor(cfg optics.Config, defocusNM float64, eng *engine.Engine) (*optics.Bank, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return opticsCache.get(opticsKey{cfg: cfg, defocusNM: defocusNM}, func() (*optics.Bank, error) {
		return optics.NewBank(cfg, defocusNM, eng)
	})
}

var bankCache memo[opticsKey, *Bank]

// BankFor returns the process-wide shared resource bank (on the Shared
// pool) for the given optics configuration and defocus excursion,
// deriving it on first use. This is what makes pipeline construction
// cheap: every pipeline at one preset is a handle on the same bank.
func BankFor(cfg optics.Config, defocusNM float64, eng *engine.Engine) (*Bank, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return bankCache.get(opticsKey{cfg: cfg, defocusNM: defocusNM}, func() (*Bank, error) {
		return NewBank(cfg, defocusNM, eng, Shared)
	})
}

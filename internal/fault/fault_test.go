package fault

import (
	"errors"
	"testing"
	"time"
)

func TestParseRejectsBadSpecs(t *testing.T) {
	bad := []string{
		"",
		";;",
		"core.measure.err",          // no value
		"err=1",                     // no site
		"core.measure.explode=1",    // unknown kind
		"core.measure.err=0",        // probability out of range
		"core.measure.err=1.5",      // probability out of range
		"core.measure.err=x",        // not a number
		"core.measure.delay=banana", // not a duration
		"core.measure.delay=-5ms",   // negative duration
		"core.measure.skew=0",       // zero factor
		"core.measure.err=1:0",      // zero count
		"core.measure.err=1:x",      // bad count
		"core.measure.err=1@2",      // bad probability suffix
		"a.err=1;a.err=0.5",         // armed twice
		"core.measure.perturb=-0.1", // negative fraction
	}
	for _, spec := range bad {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) accepted a bad spec", spec)
		}
	}
}

func TestInjectErrAndCounters(t *testing.T) {
	r, err := Parse("core.measure.err=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	Enable(r)
	t.Cleanup(func() { Enable(nil) })
	injected := Inject("core.measure")
	if injected == nil {
		t.Fatal("armed err point did not fire")
	}
	if !errors.Is(injected, ErrInjected) {
		t.Fatalf("injected error %v does not match ErrInjected", injected)
	}
	var ie *InjectedError
	if !errors.As(injected, &ie) || ie.Point != "core.measure.err" || !ie.Transient() {
		t.Fatalf("injected error %#v misses point name or transience", injected)
	}
	if Inject("other.site") != nil {
		t.Fatal("unarmed site fired")
	}
	if got := r.Snapshot()[0].Fired; got != 1 {
		t.Fatalf("fired %d, want 1", got)
	}
}

func TestActivationBudget(t *testing.T) {
	r, err := Parse("a.b.err=1:2", 1)
	if err != nil {
		t.Fatal(err)
	}
	Enable(r)
	t.Cleanup(func() { Enable(nil) })
	for i := 0; i < 2; i++ {
		if Inject("a.b") == nil {
			t.Fatalf("activation %d did not fire within budget", i)
		}
	}
	if Inject("a.b") != nil {
		t.Fatal("point fired beyond its activation budget")
	}
	st := r.Snapshot()
	if len(st) != 1 || st[0].Fired != 2 || st[0].Remaining != 0 {
		t.Fatalf("snapshot = %+v, want fired 2 remaining 0", st)
	}
}

func TestProbabilityIsSeededAndDeterministic(t *testing.T) {
	run := func(seed int64) (fired int64) {
		r, err := Parse("a.b.err=0.5", seed)
		if err != nil {
			t.Fatal(err)
		}
		Enable(r)
		defer Enable(nil)
		for i := 0; i < 200; i++ {
			Inject("a.b")
		}
		return r.Snapshot()[0].Fired
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("same seed fired %d then %d times", a, b)
	}
	if a == 0 || a == 200 {
		t.Fatalf("p=0.5 fired %d/200 times: probability gate inert", a)
	}
}

func TestDelayPanicSkewPerturb(t *testing.T) {
	r, err := Parse("d.delay=1ms;p.panic=1:1;s.skew=3;x.perturb=0.5", 1)
	if err != nil {
		t.Fatal(err)
	}
	Enable(r)
	t.Cleanup(func() { Enable(nil) })

	start := time.Now()
	if err := Inject("d"); err != nil {
		t.Fatalf("delay-only site returned error %v", err)
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("delay point did not sleep")
	}

	func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("panic point did not panic")
			}
			if pv, ok := p.(PanicValue); !ok || pv.Point != "p.panic" {
				t.Fatalf("panicked with %v, want PanicValue{p.panic}", p)
			}
		}()
		Disrupt("p")
	}()
	Disrupt("p") // budget exhausted: must not panic again

	if got := Skew("s", 10*time.Millisecond); got != 30*time.Millisecond {
		t.Fatalf("Skew = %v, want 30ms", got)
	}
	v := Perturb("x", 100)
	if v == 100 || v < 50 || v > 150 {
		t.Fatalf("Perturb(100) = %v, want a changed value in [50, 150]", v)
	}
}

func TestDisabledFastPathIsInert(t *testing.T) {
	Enable(nil)
	if Inject("any.site") != nil || Skew("s", time.Second) != time.Second || Perturb("x", 2) != 2 {
		t.Fatal("helpers acted with no registry enabled")
	}
	Disrupt("p") // must not panic
}

func BenchmarkInjectFaultsOff(b *testing.B) {
	Enable(nil)
	for i := 0; i < b.N; i++ {
		if Inject("core.measure") != nil {
			b.Fatal("fired while disabled")
		}
	}
}

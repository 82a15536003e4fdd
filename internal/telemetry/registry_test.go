package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryExpositionDeterministic(t *testing.T) {
	reg := NewRegistry()
	for range 3 {
		reg.Counter("zz_total", "last family registered, first alphabetically? no — z sorts last").Inc()
	}
	for range 2 {
		reg.Counter("aa_requests_total", "labelled counter", L("endpoint", "schedule")).Inc()
	}
	reg.Counter("aa_requests_total", "labelled counter", L("endpoint", "healthz")).Inc()
	reg.Gauge("mm_gauge", "a gauge").Set(1.5)
	reg.GaugeFunc("ff_func", "scrape-time gauge", func() float64 { return 42 })

	var a, b strings.Builder
	if err := reg.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("two scrapes differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	out := a.String()

	// Families sorted by name, series sorted by label signature.
	idx := func(s string) int { return strings.Index(out, s) }
	if !(idx("aa_requests_total") < idx("ff_func") && idx("ff_func") < idx("mm_gauge") && idx("mm_gauge") < idx("zz_total")) {
		t.Fatalf("families not sorted:\n%s", out)
	}
	if idx(`aa_requests_total{endpoint="healthz"} 1`) > idx(`aa_requests_total{endpoint="schedule"} 2`) {
		t.Fatalf("series not sorted by label signature:\n%s", out)
	}
	for _, want := range []string{
		"# TYPE aa_requests_total counter",
		"# HELP mm_gauge a gauge",
		"mm_gauge 1.5",
		"ff_func 42",
		"zz_total 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if errs := Lint(strings.NewReader(out)); len(errs) > 0 {
		t.Fatalf("self-lint failed: %v\n%s", errs, out)
	}
}

func TestCounterSameHandle(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "h", L("k", "v"))
	b := reg.Counter("x_total", "h", L("k", "v"))
	if a != b {
		t.Fatal("same name+labels returned distinct handles")
	}
	c := reg.Counter("x_total", "h", L("k", "other"))
	if a == c {
		t.Fatal("different labels returned the same handle")
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dual", "as counter")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("dual", "as gauge")
}

func TestCollectorFamiliesMerged(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("native_total", "registered directly").Inc()
	reg.Register(CollectorFunc(func() []Family {
		return []Family{{
			Name: "collected_total", Kind: KindCounter, Help: "from a collector",
			Samples: []Sample{{Labels: []Label{L("kind", "CSR")}, Value: 7}},
		}}
	}))
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `collected_total{kind="CSR"} 7`) {
		t.Fatalf("collector family missing:\n%s", out)
	}
	// Collected families participate in the global sort.
	if strings.Index(out, "collected_total") > strings.Index(out, "native_total") {
		t.Fatalf("collector family not sorted into place:\n%s", out)
	}
	if errs := Lint(strings.NewReader(out)); len(errs) > 0 {
		t.Fatalf("lint: %v\n%s", errs, out)
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", "escaping", L("path", "a\"b\\c\nd")).Inc()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{path="a\"b\\c\nd"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("escaped label missing %q:\n%s", want, sb.String())
	}
	if errs := Lint(strings.NewReader(sb.String())); len(errs) > 0 {
		t.Fatalf("lint: %v\n%s", errs, sb.String())
	}
}

// TestRegistryConcurrent hammers registration and scraping from many
// goroutines; run under -race this is the registry's thread-safety proof.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				reg.Counter("conc_total", "h", L("g", string(rune('a'+g)))).Inc()
				reg.Gauge("conc_gauge", "h").Set(float64(i))
				reg.Histogram("conc_seconds", "h", nil).Observe(float64(i) / 1000)
			}
		}(g)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var sb strings.Builder
				if err := reg.WriteText(&sb); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if errs := Lint(strings.NewReader(sb.String())); len(errs) > 0 {
		t.Fatalf("lint after concurrency: %v", errs)
	}
}

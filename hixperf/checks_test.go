package main

import (
	"encoding/binary"
	"encoding/json"
	"math/rand/v2"
	"os"
	"testing"

	"repro/internal/ocb"
)

func sumOf(a, b []byte) []byte {
	c := make([]byte, len(a))
	for i := 0; i < len(a); i += 4 {
		binary.LittleEndian.PutUint32(c[i:], binary.LittleEndian.Uint32(a[i:])+binary.LittleEndian.Uint32(b[i:]))
	}
	return c
}

func TestCheckSum(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	a, b := make([]byte, 4096), make([]byte, 4096)
	fillRandom(a, rng)
	fillRandom(b, rng)
	c := sumOf(a, b)
	if err := checkSum(a, b, c); err != nil {
		t.Fatalf("correct sum rejected: %v", err)
	}
	stale := append([]byte(nil), a...) // device memory left holding an input
	wrong := append([]byte(nil), c...)
	wrong[4000] ^= 1
	for name, got := range map[string][]byte{"one bit off": wrong, "stale input": stale, "short": c[:4092]} {
		if err := checkSum(a, b, got); err == nil {
			t.Errorf("%s: wrong result accepted", name)
		}
	}
}

func TestCheckDial(t *testing.T) {
	for _, tc := range []struct {
		name              string
		ticketed, resumed bool
		dh                int64
		ok                bool
	}{
		{"full", false, false, 8, true},
		{"resumed", true, true, 0, true},
		{"resumed with DH", true, true, 1, false},
		{"ticket refused", true, false, 8, false},
		{"full without DH", false, false, 0, false},
		{"full reported resumed", false, true, 8, false},
	} {
		err := checkDial(tc.ticketed, tc.resumed, tc.dh)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkDial(%v, %v, %d) = %v, want ok=%v", tc.name, tc.ticketed, tc.resumed, tc.dh, err, tc.ok)
		}
	}
}

func TestCheckAccepted(t *testing.T) {
	if err := checkAccepted(12, 12); err != nil {
		t.Errorf("equal counts rejected: %v", err)
	}
	if err := checkAccepted(11, 12); err == nil {
		t.Error("server accepting fewer tickets than clients resumed was accepted")
	}
}

func TestCheckSealed(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	plain := make([]byte, 4096)
	fillRandom(plain, rng)
	a, err := ocb.New(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	sealed := a.SealInto(make([]byte, len(plain)+ocb.TagSize), make([]byte, ocb.NonceSize), plain, nil)
	if err := checkSealed(plain, sealed); err != nil {
		t.Fatalf("sealed chunk rejected: %v", err)
	}
	leaked := append(append([]byte(nil), plain...), make([]byte, ocb.TagSize)...)
	partly := append([]byte(nil), sealed...)
	copy(partly[1024:1040], plain[1024:1040])
	shifted := append([]byte(nil), sealed...)
	copy(shifted[7:], plain[:16])
	for name, ch := range map[string][]byte{"plaintext": leaked, "one block": partly, "shifted block": shifted, "short": sealed[:100]} {
		if err := checkSealed(plain, ch); err == nil {
			t.Errorf("%s: chunk exposing the plaintext accepted", name)
		}
	}
}

// TestBenchmarkFile checks that BENCHMARK.json lists exactly the metrics
// this program prints, with the same units.
func TestBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(shapes) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bench.Workloads), len(shapes))
	}
	for i, w := range bench.Workloads {
		if i < len(shapes) && w.Name != shapes[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, shapes[i].name)
		}
	}
	for _, tc := range []struct {
		kind string
		file []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, layerMetrics}} {
		if len(tc.file) != len(tc.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", tc.kind, len(tc.file), len(tc.defs))
			continue
		}
		for i, m := range tc.file {
			if d := tc.defs[i]; m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", tc.kind, i, m.Name, m.Unit, d.name, d.unit)
			}
		}
	}
}

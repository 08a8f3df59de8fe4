package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dwarn/internal/trace"
)

// noTraces resolves no trace reference, so fuzzed specs never read a
// file.
type noTraces struct{}

func (noTraces) ResolveTrace(ref string) (*trace.Trace, error) {
	return nil, fmt.Errorf("spec: no trace %q", ref)
}

// decodeStrict decodes one RunSpec the way dwarnd's POST /v2/runs does:
// unknown fields are errors.
func decodeStrict(raw []byte) (RunSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var rs RunSpec
	err := dec.Decode(&rs)
	return rs, err
}

// FuzzRunSpec feeds arbitrary JSON through the run-spec intake: strict
// decode, then Resolve. Neither may panic, and a spec that resolves
// must have a canonical form that is a fixed point of canonicalization
// and a fingerprint that survives a JSON round-trip of both the input
// and the canonical spec.
func FuzzRunSpec(f *testing.F) {
	examples, err := filepath.Glob("../../examples/specs/*.json")
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example specs (%v)", err)
	}
	for _, path := range examples {
		file, err := LoadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		cells, err := file.Runs(0)
		if err != nil {
			f.Fatal(err)
		}
		for _, cell := range cells {
			raw, err := json.Marshal(cell)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(raw)
		}
	}
	goldens, err := filepath.Glob("testdata/*.golden.json")
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no golden specs (%v)", err)
	}
	for _, path := range goldens {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var rec struct {
			Canonical json.RawMessage `json:"canonical"`
		}
		if err := json.Unmarshal(raw, &rec); err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(rec.Canonical))
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		rs, err := decodeStrict(raw)
		if err != nil {
			return
		}
		res, err := rs.Resolve(noTraces{})
		if err != nil {
			return
		}
		canon, err := json.Marshal(res.Spec)
		if err != nil {
			t.Fatal(err)
		}

		again, err := res.Spec.Resolve(noTraces{})
		if err != nil {
			t.Fatalf("canonical spec %s does not resolve: %v", canon, err)
		}
		if got, _ := json.Marshal(again.Spec); !bytes.Equal(got, canon) {
			t.Fatalf("canonicalization is not idempotent:\n once %s\ntwice %s", canon, got)
		}
		if again.Fingerprint != res.Fingerprint {
			t.Fatalf("canonical spec fingerprints %s, input %s", again.Fingerprint, res.Fingerprint)
		}

		for _, v := range []*RunSpec{&rs, &res.Spec} {
			enc, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			back, err := decodeStrict(enc)
			if err != nil {
				t.Fatalf("encoded spec %s does not decode: %v", enc, err)
			}
			fp, err := back.Fingerprint(noTraces{})
			if err != nil {
				t.Fatalf("round-tripped spec %s does not resolve: %v", enc, err)
			}
			if fp != res.Fingerprint {
				t.Fatalf("fingerprint %s after a JSON round-trip of %s, %s before", fp, enc, res.Fingerprint)
			}
		}
	})
}

package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/edatool"
	"repro/internal/llm"
	"repro/internal/runner"
)

// goldenCell mirrors one entry of testdata/seed_golden.json, captured
// with the pre-provider seed code: the outcomes of a fixed sweep
// (every 12th problem, default config) and the runner cache keys of
// its jobs.
type goldenCell struct {
	Model    string            `json:"model"`
	Language string            `json:"language"`
	JobKeys  []string          `json:"job_keys"`
	Outcomes []json.RawMessage `json:"outcomes"`
}

func goldenProblems(t *testing.T) []*bench.Problem {
	t.Helper()
	var probs []*bench.Problem
	for i, p := range bench.NewSuite().Problems {
		if i%12 == 0 {
			probs = append(probs, p)
		}
	}
	return probs
}

// asJSONValue normalises a JSON document for structural comparison, so
// formatting differences cannot mask — or fake — a real divergence.
func asJSONValue(t *testing.T, raw []byte) any {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	return v
}

// TestSeedGoldenDeterminism re-runs the golden sweep through the
// refactored path — offline provider behind the full default middleware
// stack — and requires identical reports AND identical runner cache
// keys. This is the regression fence for the tentpole's compatibility
// claim: re-homing the model behind the provider boundary changed no
// observable byte of the experiment pipeline, and every cache entry
// minted before the refactor is still addressable.
func TestSeedGoldenDeterminism(t *testing.T) {
	raw, err := os.ReadFile("testdata/seed_golden.json")
	if err != nil {
		t.Fatalf("golden snapshot: %v", err)
	}
	var cells []goldenCell
	if err := json.Unmarshal(raw, &cells); err != nil {
		t.Fatalf("golden snapshot: %v", err)
	}
	if len(cells) != 6 {
		t.Fatalf("golden has %d cells, want 6 (3 profiles x 2 languages)", len(cells))
	}
	probs := goldenProblems(t)

	for i, cell := range cells {
		if testing.Short() && i != 0 && i != len(cells)-1 {
			continue // -short keeps the fence posts, full runs check all cells
		}
		model := llm.ProfileByName(cell.Model)
		if model == nil {
			t.Fatalf("golden references unknown profile %q", cell.Model)
		}
		lang := edatool.Verilog
		if cell.Language == "VHDL" {
			lang = edatool.VHDL
		}

		sum := Run(model, lang, Options{Problems: probs})
		if sum.N != len(cell.Outcomes) {
			t.Fatalf("%s/%s: %d outcomes, golden has %d", cell.Model, cell.Language, sum.N, len(cell.Outcomes))
		}
		for j, o := range sum.Outcomes {
			got, err := json.Marshal(o)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(asJSONValue(t, got), asJSONValue(t, cell.Outcomes[j])) {
				t.Errorf("%s/%s outcome %d diverged from seed:\ngot:    %s\ngolden: %s",
					cell.Model, cell.Language, j, got, cell.Outcomes[j])
			}
		}

		cfg := Options{}.effectiveConfig(model, lang)
		for j, p := range probs {
			job := runner.Job{
				Problem:  p.ID,
				Model:    model.Name(),
				Language: lang.String(),
				Config:   cfg.Fingerprint(),
			}
			if got := job.Key(); got != cell.JobKeys[j] {
				t.Errorf("%s/%s job %s cache key changed:\ngot:    %s\ngolden: %s",
					cell.Model, cell.Language, p.ID, got, cell.JobKeys[j])
			}
		}
	}
}

// TestJobKeyProviderExtension pins the cache-key compatibility rule:
// an empty Provider hashes exactly like a pre-provider Job, while a
// named provider moves the job to a distinct cell.
func TestJobKeyProviderExtension(t *testing.T) {
	base := runner.Job{Problem: "p", Model: "m", Language: "Verilog", Config: "c"}
	tagged := base
	tagged.Provider = "flaky"
	if base.Key() == tagged.Key() {
		t.Error("provider tag must change the cache key")
	}
	legacy := runner.Job{Problem: "p", Model: "m", Language: "Verilog", Config: "c"}
	if base.Key() != legacy.Key() {
		t.Error("empty provider must hash identically to the legacy job shape")
	}
	if js := tagged.String(); js != "p/m/Verilog/flaky" {
		t.Errorf("tagged String() = %q", js)
	}
	// The JSON shape is likewise unchanged for the default provider.
	b, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"problem":"p","model":"m","language":"Verilog","config":"c"}` {
		t.Errorf("legacy job JSON gained fields: %s", b)
	}
}

// TestMatrixDigest pins every byte of the full evaluation matrix: the
// JSON `benchsuite -all -json` writes (all 156 problems, 3 profiles x 2
// languages, offline provider behind the default stack). A refactor
// that moves one RNG draw, one latency or one outcome field changes the
// digest; TestSeedGoldenDeterminism samples only every 12th problem.
func TestMatrixDigest(t *testing.T) {
	const (
		wantLen    = 391885
		wantDigest = "5173bfd2ad0c0acfbf79bcf285dbef9ac976430b9eb3368f266f46ed9b059c1e"
	)
	data, err := json.MarshalIndent(Matrix(Options{}), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); len(data) != wantLen || got != wantDigest {
		t.Errorf("matrix JSON is %d bytes, sha256 %s; want %d bytes, sha256 %s",
			len(data), got, wantLen, wantDigest)
	}
}

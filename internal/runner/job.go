package runner

import (
	"crypto/sha256"
	"encoding/hex"
)

// Job addresses one evaluation cell of an experiment sweep. The
// fields fully determine the pipeline's (deterministic) outcome, so
// their hash is the cache key.
type Job struct {
	Problem  string `json:"problem"`  // bench problem ID
	Model    string `json:"model"`    // llm profile name
	Language string `json:"language"` // "Verilog" / "VHDL"
	Config   string `json:"config"`   // fingerprint of the effective core.Config
	// Provider names a non-default LLM provider ("" = the offline
	// default). The empty value is excluded from the hash so every key
	// minted before providers existed stays valid: offline sweeps keep
	// their cache entries byte-for-byte.
	Provider string `json:"provider,omitempty"`
}

// Key returns the job's content address: a hex SHA-256 over the
// fields with an unambiguous separator. Stable across processes and
// platforms.
func (j Job) Key() string {
	h := sha256.New()
	for _, f := range []string{j.Problem, j.Model, j.Language, j.Config} {
		h.Write([]byte(f))
		h.Write([]byte{0})
	}
	if j.Provider != "" {
		h.Write([]byte("provider=" + j.Provider))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (j Job) String() string {
	s := j.Problem + "/" + j.Model + "/" + j.Language
	if j.Provider != "" {
		s += "/" + j.Provider
	}
	return s
}

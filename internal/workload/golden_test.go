package workload

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
)

// TestGoldenWorkloadBytes pins every byte the generator produces: the
// sha256 of the JSON encoding of four generated workloads. The sampler, the
// pool bookkeeping and the validator may be rewritten for speed, but a
// changed draw, a reordered reference or an extra object shows here.
func TestGoldenWorkloadBytes(t *testing.T) {
	mirrored := SmallConfig()
	mirrored.MirrorHotPages = 2
	zipf := SmallConfig()
	zipf.Popularity = PopularityZipf
	zipf.ZipfS = 0.8

	cases := []struct {
		name string
		cfg  Config
		seed uint64
		want string
	}{
		{"paper seed 1", DefaultConfig(), 1,
			"df3e1667e3daf3f3462cc3441fcb1a2be4ca2149ee7a447e153c5342fa5569c3"},
		{"paper seed 2026", DefaultConfig(), 2026,
			"d2ff1bdd7668d1b0c4f647c13ff537bc7a641c7a07f928966dd0fc5600a431b6"},
		{"small seed 424242", SmallConfig(), 424242,
			"e628a513b552cf1a40c1eae6689f07a0fe9a87778140e08dc58671c1503f39c6"},
		{"small mirrored", mirrored, 121,
			"483ccd76419a7ae6acaf178ccfd4310d42b5cfc47021f62ef7305757c691b1dc"},
		{"small zipf", zipf, 99,
			"f684557703511b291ebdec1ee75ee1bfbd34378f3153e5f151d30cdb9056b4be"},
	}
	for _, c := range cases {
		w, err := Generate(c.cfg, c.seed)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		b, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != c.want {
			t.Errorf("%s: sha256 = %s, want %s (generated workload changed)", c.name, got, c.want)
		}
	}
}

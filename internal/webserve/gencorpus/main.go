// Command gencorpus regenerates the committed seed corpus for
// webserve's FuzzPayloadRoundTrip. Run from the repository root:
//
//	go run ./internal/webserve/gencorpus
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/units"
	"repro/internal/webserve"
	"repro/internal/workload"
)

func main() {
	cfg := workload.SmallConfig()
	cfg.Sites = 2
	cfg.PagesPerSiteMin, cfg.PagesPerSiteMax = 6, 10
	cfg.GlobalObjects, cfg.ObjectsPerSite, cfg.ObjectsPerMax = 120, 40, 60
	cfg.MOClasses = []workload.SizeClass{
		{Frac: 0.5, Lo: 2 * units.KB, Hi: 8 * units.KB},
		{Frac: 0.5, Lo: 8 * units.KB, Hi: 32 * units.KB},
	}
	w := workload.MustGenerate(cfg, 66)
	dir := "internal/webserve/testdata/fuzz/FuzzPayloadRoundTrip"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	write := func(name string, data []byte) {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			panic(err)
		}
		fmt.Println(name)
	}
	repo, err := io.ReadAll(webserve.ObjectReader(w, webserve.RepoSource, 0))
	if err != nil {
		panic(err)
	}
	site, err := io.ReadAll(webserve.ObjectReader(w, 1, 3))
	if err != nil {
		panic(err)
	}
	write("genuine-repo", repo)
	write("genuine-site", site)
	flipped := append([]byte(nil), site...)
	flipped[len(flipped)/2] ^= 0x01
	write("bit-flip", flipped)
	write("truncated", repo[:len(repo)/2])
	hdr := webserve.EncodePayloadHeader(webserve.PayloadHeader{
		Object: 9999999, Source: 127, Seed: ^uint64(0), Length: 1 << 33,
	})
	write("wide-header", hdr)
	write("padding-games", []byte("REPL1 obj=00 src=-1 seed=0000000000000000 len=096\n"))
}

package workload

import (
	"fmt"
	"io"

	"repro/internal/stats"
	"repro/internal/units"
)

// Summary is the generator audit: the realized values of every Table-1
// parameter, used to verify the synthetic workload matches the paper
// (including the "100 % storage ≈ 1.8 GB on average" claim of §5.2).
type Summary struct {
	Sites          int
	Pages          int
	Objects        int
	PagesPerSite   stats.Accumulator
	ObjectsPerSite stats.Accumulator
	CompPerPage    stats.Accumulator
	OptPerPage     stats.Accumulator // over pages that have optional MOs
	OptionalPages  int               // pages with ≥1 optional MO
	HTMLBytes      stats.Accumulator
	MOBytes        stats.Accumulator
	HotPages       int
	HotTraffic     float64           // fraction of request rate on hot pages
	FullStorage    stats.Accumulator // per-site 100 %-storage requirement (bytes)
	PageRate       stats.Accumulator // per-site aggregate f(W_j) sum
}

// Summarize computes the audit over a workload.
func Summarize(w *Workload) *Summary {
	s := &Summary{Sites: w.NumSites(), Pages: w.NumPages(), Objects: w.NumObjects()}
	for _, o := range w.Objects {
		s.MOBytes.Add(float64(o.Size))
	}
	var totalRate, hotRate float64
	for j := range w.Pages {
		p := &w.Pages[j]
		s.CompPerPage.Add(float64(len(p.Compulsory)))
		if len(p.Optional) > 0 {
			s.OptionalPages++
			s.OptPerPage.Add(float64(len(p.Optional)))
		}
		s.HTMLBytes.Add(float64(p.HTMLSize))
		totalRate += float64(p.Freq)
		if p.Hot {
			s.HotPages++
			hotRate += float64(p.Freq)
		}
	}
	if totalRate > 0 {
		s.HotTraffic = hotRate / totalRate
	}
	for i := range w.Sites {
		s.PagesPerSite.Add(float64(len(w.Sites[i].Pages)))
		s.ObjectsPerSite.Add(float64(len(w.Sites[i].Objects)))
		s.FullStorage.Add(float64(w.FullStorageBytes(SiteID(i))))
		var rate float64
		for _, pid := range w.Sites[i].Pages {
			rate += float64(w.Pages[pid].Freq)
		}
		s.PageRate.Add(rate)
	}
	return s
}

// Write renders the audit as an aligned two-column report.
func (s *Summary) Write(w io.Writer) error {
	rows := [][2]string{
		{"Local sites", fmt.Sprintf("%d", s.Sites)},
		{"Web pages (total)", fmt.Sprintf("%d", s.Pages)},
		{"Pages per site", fmt.Sprintf("%.0f (avg, range %.0f-%.0f)", s.PagesPerSite.Mean(), s.PagesPerSite.Min(), s.PagesPerSite.Max())},
		{"MOs in the network", fmt.Sprintf("%d", s.Objects)},
		{"MOs per site pool", fmt.Sprintf("%.0f (avg, range %.0f-%.0f)", s.ObjectsPerSite.Mean(), s.ObjectsPerSite.Min(), s.ObjectsPerSite.Max())},
		{"Compulsory MOs per page", fmt.Sprintf("%.1f (avg, range %.0f-%.0f)", s.CompPerPage.Mean(), s.CompPerPage.Min(), s.CompPerPage.Max())},
		{"Pages with optional MOs", fmt.Sprintf("%d (%.1f%%)", s.OptionalPages, 100*float64(s.OptionalPages)/float64(max(s.Pages, 1)))},
		{"Optional MOs per such page", fmt.Sprintf("%.1f (avg, range %.0f-%.0f)", s.OptPerPage.Mean(), s.OptPerPage.Min(), s.OptPerPage.Max())},
		{"HTML size", fmt.Sprintf("%s (avg)", units.ByteSize(s.HTMLBytes.Mean()))},
		{"MO size", fmt.Sprintf("%s (avg)", units.ByteSize(s.MOBytes.Mean()))},
		{"Hot pages", fmt.Sprintf("%d (%.1f%% of pages, %.1f%% of traffic)", s.HotPages, 100*float64(s.HotPages)/float64(max(s.Pages, 1)), 100*s.HotTraffic)},
		{"100% storage per site", fmt.Sprintf("%s (avg)", units.ByteSize(s.FullStorage.Mean()))},
		{"Page request rate per site", fmt.Sprintf("%.2f req/s (avg)", s.PageRate.Mean())},
	}
	width := 0
	for _, r := range rows {
		if len(r[0]) > width {
			width = len(r[0])
		}
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-*s  %s\n", width, r[0], r[1]); err != nil {
			return err
		}
	}
	return nil
}

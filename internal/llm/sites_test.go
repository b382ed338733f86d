package llm

// pinnedSite is one enumerated mutation site as TestMutationSiteDigest
// hashes it: what the site says about itself, and the text its edit
// makes of the source it was enumerated from.
type pinnedSite struct {
	desc, marker string
	weight       int
	text         string
}

// pinnedSites enumerates the sites of one kind in src, in sampling
// order.
func pinnedSites(src string, verilog bool, kind MutKind) []pinnedSite {
	var out []pinnedSite
	for _, c := range candidates(src, verilog, kind) {
		m := c.mutation(kind)
		out = append(out, pinnedSite{desc: m.Desc, marker: m.Marker, weight: c.weight, text: m.Apply(src)})
	}
	return out
}

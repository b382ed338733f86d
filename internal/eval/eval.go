package eval

// Rate is the pass fraction c/n, pass@1 over n single-sample cells,
// which the paper reports in Table 1 as a percentage.
func Rate(n, c int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(c) / float64(n)
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

package topk

// ConfirmRows exposes, to the external tests, the table the exact
// confirm reads.
func (ix *Index) ConfirmRows() []float64 { return ix.table }

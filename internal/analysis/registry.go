package analysis

// All returns agcmlint's analyzer suite in reporting order: the
// simulation-protocol analyzers from PR 2 first, then the
// concurrency-correctness suite guarding the serving stack.
func All() []*Analyzer {
	return []*Analyzer{
		Nondeterm, Commtag, Collective,
		Lockorder, Goleak, Ctxflow, Wgmisuse,
	}
}

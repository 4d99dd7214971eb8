package treejoin

// WithMemtableBudget bounds how many trees a persistent corpus stages in its
// WAL-backed memtable before flushing them into an immutable segment; n < 1
// keeps the default (512). The tests use it to make small histories flush and
// compact; it is an Open-time hook with no effect on queries or on in-memory
// corpora.
func WithMemtableBudget(n int) Option { return func(c *config) { c.memBudget = n } }

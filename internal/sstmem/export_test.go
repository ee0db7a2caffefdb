package sstmem

// CacheBytes returns the host bytes a hierarchy's two caches hold.
func CacheBytes(h *Hierarchy) int { return h.l1.hostBytes() + h.l2.hostBytes() }

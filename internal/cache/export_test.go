package cache

// Backed reports whether the cache has its own tables, which its first
// Install gives it; before that it reads its System's shared zero table.
func (d *DCache) Backed() bool { return d.lru != nil }

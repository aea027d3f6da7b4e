package mem

// CacheConfig parameterizes the per-core L1 timing model.
type CacheConfig struct {
	Lines    int // number of direct-mapped lines; 0 disables the model
	LineSize int // bytes per line (power of two)
}

// DefaultCache returns a 32 KiB direct-mapped L1 with 64-byte lines.
func DefaultCache() CacheConfig { return CacheConfig{Lines: 512, LineSize: 64} }

// Cache is a direct-mapped L1 used purely for load timing. Stores update
// the line on a hit (write-through, no write-allocate) but are charged a
// fixed store cost by the simulator.
type Cache struct {
	cfg       CacheConfig
	tags      []int64
	valid     []bool
	shift     uint
	mask      int64 // Lines-1 when Lines is a power of two, else -1
	Hits      int64
	Misses    int64
	Disabled  bool
	hitAlways bool
}

// NewCache builds a cache; a zero Lines count produces a disabled cache
// where every access hits (uniform memory latency).
func NewCache(cfg CacheConfig) *Cache {
	if cfg.Lines <= 0 {
		return &Cache{Disabled: true, hitAlways: true}
	}
	shift := uint(0)
	for (1 << shift) < cfg.LineSize {
		shift++
	}
	mask := int64(-1)
	if cfg.Lines&(cfg.Lines-1) == 0 {
		mask = int64(cfg.Lines - 1)
	}
	return &Cache{
		cfg:   cfg,
		tags:  make([]int64, cfg.Lines),
		valid: make([]bool, cfg.Lines),
		shift: shift,
		mask:  mask,
	}
}

// set maps a line number to its direct-mapped slot. Addresses (hence line
// numbers) are non-negative, so the mask path equals the modulo path for
// power-of-two line counts while avoiding a hardware divide per access.
func (c *Cache) set(line int64) int {
	if c.mask >= 0 {
		return int(line & c.mask)
	}
	return int(line % int64(c.cfg.Lines))
}

// Access touches addr for a load; it returns true on a hit and fills the
// line on a miss.
func (c *Cache) Access(addr int64) bool {
	if c.hitAlways {
		c.Hits++
		return true
	}
	line := addr >> c.shift
	set := c.set(line)
	if c.valid[set] && c.tags[set] == line {
		c.Hits++
		return true
	}
	c.valid[set] = true
	c.tags[set] = line
	c.Misses++
	return false
}

// Probe reports whether a load of addr would hit, without filling the line
// or touching the hit/miss statistics. The simulator's threaded engine uses it
// to decide — before committing to the access — whether a load would need
// the shared memory port.
func (c *Cache) Probe(addr int64) bool {
	if c.hitAlways {
		return true
	}
	line := addr >> c.shift
	set := c.set(line)
	return c.valid[set] && c.tags[set] == line
}

// Touch updates the line for a store without counting hit/miss statistics
// (write-through, no allocate).
func (c *Cache) Touch(addr int64) {
	if c.hitAlways {
		return
	}
	// A store to a cached line keeps it valid; to an uncached line it
	// bypasses the cache. Nothing to do in either case for a direct-mapped
	// write-through no-allocate cache with the tag already tracked.
}

// Reset clears all lines and statistics.
func (c *Cache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
	}
	c.Hits, c.Misses = 0, 0
}

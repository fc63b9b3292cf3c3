// Package cache implements the set-associative first-level caches of the
// evaluation platform: 4KB, 2-way, 32-byte lines, with the MBPTA-compliant
// random placement and random replacement policies (Kosmidis et al.), and
// the conventional modulo placement + LRU replacement for the
// time-deterministic contrast of Section 2.
//
// Random placement is parametric: the set index of a line is a keyed hash of
// the line address, and the key (seed) is redrawn before every program run.
// Under this scheme every line is mapped to a uniformly random set,
// independently across runs, so a group of k specific lines lands in a
// single set with probability (1/S)^(k-1) — the probability model TAC builds
// on. Random replacement draws the victim way uniformly on every miss.
package cache

import (
	"fmt"

	"pubtac/internal/rng"
)

// PlacementPolicy selects how line addresses map to cache sets.
type PlacementPolicy uint8

const (
	// RandomPlacement maps lines to sets through a per-run keyed hash
	// (time-randomized, MBPTA-compliant).
	RandomPlacement PlacementPolicy = iota
	// ModuloPlacement uses the conventional line-address modulo-sets
	// mapping (time-deterministic).
	ModuloPlacement
)

// ReplacementPolicy selects the victim on a miss in a full set.
type ReplacementPolicy uint8

const (
	// RandomReplacement evicts a uniformly random way (MBPTA-compliant).
	RandomReplacement ReplacementPolicy = iota
	// LRUReplacement evicts the least recently used way
	// (time-deterministic).
	LRUReplacement
)

// Config describes a cache geometry and its policies. The zero value is not
// valid; use DefaultL1 for the paper's configuration.
type Config struct {
	Sets        int // number of sets (power of two)
	Ways        int // associativity
	LineBytes   int // line size in bytes
	Placement   PlacementPolicy
	Replacement ReplacementPolicy
}

// DefaultL1 returns the paper's L1 configuration: 4KB, 2-way, 32B lines
// (64 sets), random placement and replacement.
func DefaultL1() Config {
	return Config{
		Sets:        64,
		Ways:        2,
		LineBytes:   32,
		Placement:   RandomPlacement,
		Replacement: RandomReplacement,
	}
}

// SizeBytes returns the total capacity of the configuration.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * c.LineBytes }

// LineShift returns log2(LineBytes), the byte-address-to-line shift. The
// cache and the compiled replay of package proc share it so their line
// projections cannot diverge.
func (c Config) LineShift() uint {
	var s uint
	for b := c.LineBytes; b > 1; b >>= 1 {
		s++
	}
	return s
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache: Sets must be a positive power of two, got %d", c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: Ways must be positive, got %d", c.Ways)
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: LineBytes must be a positive power of two, got %d", c.LineBytes)
	}
	return nil
}

// Cache is a single set-associative cache instance. It is not safe for
// concurrent use; simulation engines create one per goroutine.
type Cache struct {
	cfg      Config
	seed     uint64 // placement hash key for the current run
	rand     *rng.Xoshiro256
	lines    []uint64 // lines[set*Ways+way] = line address
	valid    []bool
	lruTick  []uint64 // last-touch timestamp per way (LRU only)
	tick     uint64
	hits     uint64
	misses   uint64
	setMask  uint64
	lineBits uint
}

// New creates a cache with the given configuration, seeded with seed. It
// panics on invalid configurations (programming error).
func New(cfg Config, seed uint64) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{
		cfg:      cfg,
		lines:    make([]uint64, cfg.Sets*cfg.Ways),
		valid:    make([]bool, cfg.Sets*cfg.Ways),
		lruTick:  make([]uint64, cfg.Sets*cfg.Ways),
		setMask:  uint64(cfg.Sets - 1),
		lineBits: cfg.LineShift(),
	}
	c.Reseed(seed)
	return c
}

// PlacementKey derives the placement-hash key that Reseed(seed) installs.
// The batched replay of package proc evaluates placements for a block of
// run seeds without touching Cache objects; sharing the derivation here
// keeps the two paths impossible to diverge.
func PlacementKey(seed uint64) uint64 { return rng.Mix64(seed ^ 0xCAC4E) }

// ReplacementSeed derives the replacement-stream seed that Reseed(seed)
// uses, for the same reason as PlacementKey.
func ReplacementSeed(seed uint64) uint64 { return rng.Mix64(seed ^ 0x5EED1ACE) }

// Reseed starts a new run: it redraws the placement hash key and the
// replacement random stream from seed, and flushes the contents (the
// evaluation flushes cache content before each run). The replacement
// generator is reseeded in place, so Reseed does not allocate.
func (c *Cache) Reseed(seed uint64) {
	c.seed = PlacementKey(seed)
	if c.rand == nil {
		c.rand = rng.New(ReplacementSeed(seed))
	} else {
		c.rand.Reseed(ReplacementSeed(seed))
	}
	c.Flush()
}

// Flush invalidates all cache contents and resets hit/miss counters.
func (c *Cache) Flush() {
	for i := range c.valid {
		c.valid[i] = false
	}
	c.hits, c.misses, c.tick = 0, 0, 0
}

// SetOf returns the set index the current run maps line to.
func (c *Cache) SetOf(line uint64) int {
	if c.cfg.Placement == ModuloPlacement {
		return int(line & c.setMask)
	}
	return int(rng.Mix64(line^c.seed) & c.setMask)
}

// Access looks up the byte address addr, allocating on miss. It returns
// true on a hit.
func (c *Cache) Access(addr uint64) bool {
	return c.AccessLine(addr >> c.lineBits)
}

// AccessLine looks up a line address directly, allocating on miss. It
// returns true on a hit.
func (c *Cache) AccessLine(line uint64) bool {
	set := c.SetOf(line)
	base := set * c.cfg.Ways
	c.tick++
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[base+w] && c.lines[base+w] == line {
			c.hits++
			c.lruTick[base+w] = c.tick
			return true
		}
	}
	c.misses++
	// Prefer an invalid way.
	for w := 0; w < c.cfg.Ways; w++ {
		if !c.valid[base+w] {
			c.install(base+w, line)
			return false
		}
	}
	// Evict according to the replacement policy.
	victim := 0
	if c.cfg.Replacement == RandomReplacement {
		victim = c.rand.Intn(c.cfg.Ways)
	} else {
		oldest := c.lruTick[base]
		for w := 1; w < c.cfg.Ways; w++ {
			if c.lruTick[base+w] < oldest {
				oldest = c.lruTick[base+w]
				victim = w
			}
		}
	}
	c.install(base+victim, line)
	return false
}

func (c *Cache) install(idx int, line uint64) {
	c.lines[idx] = line
	c.valid[idx] = true
	c.lruTick[idx] = c.tick
}

// Hits returns the hit count since the last flush.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the miss count since the last flush.
func (c *Cache) Misses() uint64 { return c.misses }

// Accesses returns hits + misses since the last flush.
func (c *Cache) Accesses() uint64 { return c.hits + c.misses }

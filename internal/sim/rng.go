package sim

import (
	"encoding/binary"
	"math"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (SplitMix64). Workload generators use it so that every experiment is
// reproducible from its seed. It is not safe for concurrent use; give each
// goroutine its own instance.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). n must be positive.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Zipfian generates integers in [0, n) following a zipfian distribution
// with the YCSB-standard skew constant. It implements the Gray et al.
// "Quickly generating billion-record synthetic databases" algorithm used by
// the YCSB ZipfianGenerator, so key popularity matches the paper's YCSB
// runs.
type Zipfian struct {
	rng   *RNG
	n     int64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
}

// ZipfianConstant is YCSB's default skew.
const ZipfianConstant = 0.99

// NewZipfian returns a zipfian generator over [0, n).
func NewZipfian(rng *RNG, n int64) *Zipfian {
	z := &Zipfian{rng: rng, n: n, theta: ZipfianConstant}
	z.alpha = 1.0 / (1.0 - z.theta)
	z.zetan = zetaStatic(n, z.theta)
	z.zeta2 = zetaStatic(2, z.theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-z.theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zetaStatic(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next returns the next zipfian-distributed value.
func (z *Zipfian) Next() int64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// ScrambledNext returns a zipfian value scattered across the keyspace with
// an FNV hash, matching YCSB's ScrambledZipfianGenerator: popular keys are
// spread uniformly over [0, n) rather than clustered at 0.
func (z *Zipfian) ScrambledNext() int64 {
	v := z.Next()
	return int64(fnv64(uint64(v)) % uint64(z.n))
}

func fnv64(v uint64) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return FNV1a(FNVOffset, b[:])
}

// Latest generates YCSB workload-D style "latest" keys: zipfian distance
// from the most recently inserted record.
type Latest struct {
	z *Zipfian
	// Max is the current number of records; callers bump it as they insert.
	Max int64
}

// NewLatest returns a latest-distribution generator over an initially
// n-record keyspace.
func NewLatest(rng *RNG, n int64) *Latest {
	return &Latest{z: NewZipfian(rng, n), Max: n}
}

// Next returns the next key, biased toward recently inserted records.
func (l *Latest) Next() int64 {
	k := l.Max - 1 - l.z.Next()
	if k < 0 {
		k = 0
	}
	return k
}

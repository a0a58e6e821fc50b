package main

// Seeded input generation. Everything the program under test sees —
// image bytes, READ offsets, boot extents, WRITE payloads — is derived
// from the -seed flag through the generator below, and the benchmark
// keeps its own copy of every image so each payload can be compared
// with what was generated rather than with what the chain returned
// earlier.

const blockSize = 8192

// rng is xorshift64*: small, allocation-free and good enough to make
// blocks incompressible and offsets uniform.
type rng uint64

func newRNG(seed int64, stream uint64) rng {
	// splitmix64 over (seed, stream) so nearby seeds give unrelated
	// sequences and no stream starts at the all-zero state.
	z := uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return rng(z)
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545f4914f6cdd1d
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fill overwrites p with the stream's next bytes.
func (r *rng) fill(p []byte) {
	for len(p) >= 8 {
		v := r.next()
		p[0], p[1], p[2], p[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		p[4], p[5], p[6], p[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
		p = p[8:]
	}
	if len(p) > 0 {
		v := r.next()
		for i := range p {
			p[i] = byte(v >> (8 * i))
		}
	}
}

// genImage returns size bytes of seeded, incompressible content for
// the given stream (one stream per file and per write round).
func genImage(seed int64, stream uint64, size int) []byte {
	img := make([]byte, size)
	r := newRNG(seed, stream)
	r.fill(img)
	return img
}

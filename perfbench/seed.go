package main

// mix derives a deterministic, positive rng seed from the workload seed and
// an op's coordinates, so every op's input depends only on the seed.
func mix(seed int64, parts ...int) int64 {
	x := splitmix(uint64(seed))
	for _, p := range parts {
		x = splitmix(x ^ uint64(int64(p)))
	}
	if v := int64(x >> 1); v != 0 {
		return v
	}
	return 1
}

// splitmix is the SplitMix64 finalizer: a bijective 64-bit mixer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

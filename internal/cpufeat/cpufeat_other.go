//go:build !amd64 || purego

package cpufeat

// AVX2 is false without amd64 assembly (another architecture, or the
// purego tag), where every kernel runs its pure-Go body.
const AVX2 = false

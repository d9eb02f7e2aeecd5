// Package cpufeat reports the CPU features the assembly kernels select
// on, probed once at init. It is a leaf package: each kernel package keeps
// its own unexported switch, set from these bools, that tests and
// benchmarks clear to run the pure-Go body on the same machine.
package cpufeat

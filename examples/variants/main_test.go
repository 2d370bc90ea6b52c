package main

// Example runs the program and pins its whole report: the simulation is
// deterministic, so any change to what it prints fails here.
func Example() {
	main()
	// Output:
	// === goal: cost ===
	// call  1 -> wasm (201ms)
	// call  2 -> wasm (200ms)
	// call  3 -> wasm (200ms)
	// call  4 -> wasm (200ms)
	// call  5 -> wasm (200ms)
	// ran map[wasm:12]; mean 200.134886ms
	// compute bill: $0.000033
	//
	// === goal: latency ===
	// call  1 -> wasm (201ms)
	// call  2 -> wasm (200ms)
	// call  3 -> wasm (200ms)
	// call  4 -> gpu  (2.041s)
	// call  5 -> gpu  (40ms)
	// ran map[gpu:9 wasm:3]; mean 246.889319ms
	// compute bill: $0.000165
	//
	// same function reference, same handler — the optimizer picked the implementation
}

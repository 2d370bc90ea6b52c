package main

// Example runs the program and pins its whole report: the simulation is
// deterministic, so any change to what it prints fails here.
func Example() {
	main()
	// Output:
	// t=1.619959ms fleet=0 (cold deployment)
	// t=1s     fleet=0
	// t=2s     fleet=34
	// t=3s     fleet=37
	// t=4s     fleet=37
	// t=5s     fleet=37
	// t=6s     fleet=33
	// t=7s     fleet=32
	// t=8s     fleet=21
	// t=9s     fleet=0
	// t=10s    fleet=0
	//
	// served 3074 requests: p50=25.48ms p99=25.48ms
	// cold starts: 37, warm starts: 3037
	// pay-per-use: $0.001545 for 225 instance-seconds
	// peak-provisioned for the same window: $0.002055 (1.3x more)
	//
	// -- admission control: 4x overload burst against a fixed 8-slot fleet --
	// served 1656, shed 4623 (typed ErrOverload — never a timeout)
	// goodput 828 rps of 800 rps capacity, p50=80.58ms p99=88.70ms (queue-delay budget 100ms)
	// shed breakdown: queue-full=4514 deadline=0 codel=109, peak queue 64
}

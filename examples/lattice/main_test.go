package main

// Example runs the program and pins its whole report: the simulation is
// deterministic, so any change to what it prints fails here.
func Example() {
	main()
	// Output:
	// MUTABLE → APPEND_ONLY → IMMUTABLE
	//   APPEND_ONLY refuses put:      object: overwrite of append-only content
	//   IMMUTABLE   refuses append:   object: write to immutable object
	// MUTABLE → FIXED_SIZE → IMMUTABLE
	//   FIXED_SIZE  refuses append:   object: resize of fixed-size object
	//   IMMUTABLE   refuses write-at: object: write to immutable object
	// APPEND_ONLY → FIXED_SIZE: CanTransition = false
	//   APPEND_ONLY refuses freeze:   object: mutability transition not allowed: APPEND_ONLY -> FIXED_SIZE
	// rights, from read|write|append|exec|setmut|grant|unlink|destroy
	//   without setmut, freeze: core: capability: required right not held: need setmut, have read|write|append|exec|grant|unlink|destroy
	//   without exec, invoke: core: capability: required right not held: need exec, have read|write|append|grant|unlink|destroy
}

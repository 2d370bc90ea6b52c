// Lattice: Figure 1's mutability levels and the rights that guard them.
//
// Two objects walk the lattice's two paths to IMMUTABLE, one through
// APPEND_ONLY and one through FIXED_SIZE. After each freeze the program
// reads the level back and shows a write the level now refuses. The two
// middle levels have no edge between them, so APPEND_ONLY → FIXED_SIZE is
// refused as well. Then a full-rights reference is attenuated one right at
// a time, and each lost right refuses one more verb.
//
//	go run ./examples/lattice
package main

import (
	"fmt"
	"log"

	"repro/pcsi"
)

func main() {
	cloud := pcsi.New(pcsi.DefaultOptions())
	client := cloud.NewClient(0)

	cloud.Env().Go("main", func(p *pcsi.Proc) {
		create := func() pcsi.Ref {
			ref, err := client.Create(p, pcsi.Regular)
			check(err)
			check(client.Put(p, ref, []byte("log")))
			return ref
		}
		// refused prints the level ref is at now and the op it refused.
		refused := func(ref pcsi.Ref, op string, err error) {
			level, merr := client.Mutability(p, ref)
			check(merr)
			if err == nil {
				log.Fatalf("%v accepted %s", level, op)
			}
			fmt.Printf("  %-11v refuses %-9s %v\n", level, op+":", err)
		}

		fmt.Println("MUTABLE → APPEND_ONLY → IMMUTABLE")
		journal := create()
		check(client.Freeze(p, journal, pcsi.AppendOnly))
		check(client.Append(p, journal, []byte("+entry")))
		refused(journal, "put", client.Put(p, journal, []byte("rewritten")))
		check(client.Freeze(p, journal, pcsi.Immutable))
		refused(journal, "append", client.Append(p, journal, []byte("+entry")))

		fmt.Println("MUTABLE → FIXED_SIZE → IMMUTABLE")
		block := create()
		check(client.Freeze(p, block, pcsi.FixedSize))
		check(client.WriteAt(p, block, []byte("L"), 0))
		refused(block, "append", client.Append(p, block, []byte("+entry")))
		check(client.Freeze(p, block, pcsi.Immutable))
		refused(block, "write-at", client.WriteAt(p, block, []byte("l"), 0))

		fmt.Println("APPEND_ONLY → FIXED_SIZE: CanTransition =", pcsi.AppendOnly.CanTransition(pcsi.FixedSize))
		side := create()
		check(client.Freeze(p, side, pcsi.AppendOnly))
		refused(side, "freeze", client.Freeze(p, side, pcsi.FixedSize))

		fmt.Println("rights, from", pcsi.RightsAll)
		doc := create()
		rights := pcsi.RightsAll &^ pcsi.RightSetMut
		noSetMut, err := client.Attenuate(doc, rights)
		check(err)
		err = client.Freeze(p, noSetMut, pcsi.Immutable)
		fmt.Printf("  without setmut, freeze: %v\n", err)
		rights &^= pcsi.RightExec
		noExec, err := client.Attenuate(noSetMut, rights)
		check(err)
		_, err = client.Invoke(p, noExec, pcsi.InvokeArgs{})
		fmt.Printf("  without exec, invoke: %v\n", err)
	})
	cloud.Env().Run()
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

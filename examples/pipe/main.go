// Pipe: two functions joined by a FIFO, with the reply sent over a socket.
//
// A producer function pushes words onto a FIFO object; a consumer
// function, running at the same time, pops them, and answers the client
// over a Socket object, Figure 2's "TCP connection". Both objects are
// reached through references like any other, and each function holds only
// the rights its side needs: the producer may append to the FIFO, the
// consumer may read and write it and write to the socket.
//
//	go run ./examples/pipe
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/pcsi"
)

var words = []string{"functions", "joined", "by", "a", "fifo"}

func main() {
	cloud := pcsi.New(pcsi.DefaultOptions())
	client := cloud.NewClient(0)

	cloud.Env().Go("main", func(p *pcsi.Proc) {
		pipe, err := client.Create(p, pcsi.FIFO)
		check(err)
		conn, err := client.Create(p, pcsi.Socket)
		check(err)

		produce, err := client.RegisterFunction(p, pcsi.FnConfig{
			Name: "produce", Kind: pcsi.PlatformWasm,
			Handler: func(fc *pcsi.FnCtx) error {
				for _, w := range words {
					if err := fc.Client.Push(fc.Proc(), fc.Outputs[0], []byte(w)); err != nil {
						return err
					}
				}
				return nil
			},
		})
		check(err)
		consume, err := client.RegisterFunction(p, pcsi.FnConfig{
			Name: "consume", Kind: pcsi.PlatformWasm,
			Handler: func(fc *pcsi.FnCtx) error {
				got := make([]string, len(words))
				for i := range got {
					msg, err := fc.Client.Pop(fc.Proc(), fc.Inputs[0])
					if err != nil {
						return err
					}
					got[i] = string(msg)
				}
				reply := strings.ToUpper(strings.Join(got, " "))
				return fc.Client.SockSend(fc.Proc(), fc.Outputs[0], pcsi.ServerEnd, []byte(reply))
			},
		})
		check(err)

		// Each side gets an attenuated reference: the producer can only
		// append to the pipe, the consumer cannot freeze or invoke it.
		in, err := client.Attenuate(pipe, pcsi.RightAppend)
		check(err)
		out, err := client.Attenuate(pipe, pcsi.RightRead|pcsi.RightWrite)
		check(err)
		reply, err := client.Attenuate(conn, pcsi.RightWrite)
		check(err)

		start := p.Now()
		cloud.Env().Go("producer", func(p *pcsi.Proc) {
			_, err := client.Invoke(p, produce, pcsi.InvokeArgs{Outputs: []pcsi.Ref{in}})
			check(err)
		})
		_, err = client.Invoke(p, consume, pcsi.InvokeArgs{Inputs: []pcsi.Ref{out}, Outputs: []pcsi.Ref{reply}})
		check(err)

		msg, err := client.SockRecv(p, conn, pcsi.ClientEnd)
		check(err)
		fmt.Printf("client received %q over the socket\n", msg)
		fmt.Printf("pipeline took %v of virtual time\n", p.Now().Sub(start))
		check(client.SockClose(p, conn))
		_, err = client.SockRecv(p, conn, pcsi.ClientEnd)
		fmt.Println("receive after close:", err)
	})
	cloud.Env().Run()

	fmt.Printf("total virtual time: %v; bytes moved over the fabric: %d\n",
		cloud.Env().Now(), cloud.BytesMoved)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

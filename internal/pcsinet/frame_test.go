package pcsinet

import (
	"bufio"
	"bytes"
	"testing"

	"repro/internal/wire"
)

// countingWriter counts the Write calls it receives.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteFrameOneWrite pins one Write per frame — one syscall on a
// net.Conn — whatever the body size, the slow-path size above eagerFrame
// included, and that the frame reads back intact.
func TestWriteFrameOneWrite(t *testing.T) {
	for _, size := range []int{0, 1 << 10, eagerFrame + 1} {
		body := bytes.Repeat([]byte{0xa5}, size)
		var w countingWriter
		if err := WriteFrame(&w, &wire.Message{Op: OpPut, Key: "ref-0123", Body: body}); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Errorf("%d-byte body: WriteFrame issued %d writes, want 1", size, w.writes)
		}
		m, err := ReadFrame(&w.Buffer)
		if err != nil {
			t.Fatalf("%d-byte body: %v", size, err)
		}
		if m.Op != OpPut || !bytes.Equal(m.Body, body) {
			t.Errorf("%d-byte body: read back op %q and a %d-byte body", size, m.Op, len(m.Body))
		}
	}
}

// TestBufferedFramesOwnTheirBytes reads two back-to-back frames through one
// bufio.Reader: both decode intact, and each Body is its own memory, so a
// body a caller keeps is never overwritten by the next frame.
func TestBufferedFramesOwnTheirBytes(t *testing.T) {
	var b bytes.Buffer
	for _, body := range []string{"first body", "other body"} {
		if err := WriteFrame(&b, &wire.Message{Op: OpPut, Key: "ref-0123", Body: []byte(body)}); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&b)
	first, err := ReadFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ReadFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(first.Body) != "first body" || string(second.Body) != "other body" || second.Key != "ref-0123" {
		t.Fatalf("frames decoded as %q / %q (key %q)", first.Body, second.Body, second.Key)
	}
	for i := range first.Body {
		first.Body[i] = 'x'
	}
	if string(second.Body) != "other body" {
		t.Errorf("scribbling on the first body changed the second to %q", second.Body)
	}
}

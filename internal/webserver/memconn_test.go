package webserver

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// The in-memory conn stands in for a loopback TCP socket under wsproto,
// so these tests hold it to the socket behaviours wsproto and the
// browser rely on. They run under -race in `make race`.

var _ net.Conn = (*memConn)(nil)

func TestMemConnPartialReads(t *testing.T) {
	a, b := newMemPipe()
	defer a.Close()
	defer b.Close()
	if n, err := a.Write([]byte("hello world")); n != 11 || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	var got []byte
	buf := make([]byte, 4)
	for len(got) < 11 {
		n, err := b.Read(buf)
		if err != nil {
			t.Fatalf("Read after %q: %v", got, err)
		}
		if n == 0 || n > 4 {
			t.Fatalf("Read returned %d bytes into a 4-byte buffer", n)
		}
		got = append(got, buf[:n]...)
	}
	if string(got) != "hello world" {
		t.Fatalf("read %q", got)
	}
	// Both ends write before either reads: the WebSocket opening.
	if _, err := a.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if n, _ := io.ReadFull(a, buf); string(buf[:n]) != "pong" {
		t.Fatalf("a read %q", buf[:n])
	}
	if n, _ := io.ReadFull(b, buf); string(buf[:n]) != "ping" {
		t.Fatalf("b read %q", buf[:n])
	}
}

func TestMemConnLargeWriteBlocksThenCompletes(t *testing.T) {
	a, b := newMemPipe()
	defer a.Close()
	defer b.Close()
	payload := bytes.Repeat([]byte("0123456789abcdef"), 3*memPipeBuffer/16)
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := a.Write(payload)
		done <- result{n, err}
	}()
	select {
	case r := <-done:
		t.Fatalf("write of %d bytes returned (%d, %v) with nobody reading a %d-byte pipe", len(payload), r.n, r.err, memPipeBuffer)
	case <-time.After(50 * time.Millisecond):
	}
	got, err := io.ReadAll(io.LimitReader(b, int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	if r := <-done; r.n != len(payload) || r.err != nil {
		t.Fatalf("blocked write finished (%d, %v), want (%d, nil)", r.n, r.err, len(payload))
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("bytes changed in transit")
	}
}

func TestMemConnDeadlines(t *testing.T) {
	a, b := newMemPipe()
	defer a.Close()
	defer b.Close()
	buf := make([]byte, 8)

	// A read deadline fails a blocked read and is re-armable.
	for round := 0; round < 2; round++ {
		_ = b.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		start := time.Now()
		_, err := b.Read(buf)
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("round %d: blocked read returned %v, want deadline exceeded", round, err)
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("round %d: %v is not a net.Error timeout", round, err)
		}
		if d := time.Since(start); d < 15*time.Millisecond || d > 2*time.Second {
			t.Fatalf("round %d: read deadline of 20ms fired after %v", round, d)
		}
	}
	// Moving the deadline out, or lifting it, makes the conn usable again.
	_ = b.SetReadDeadline(time.Time{})
	if _, err := a.Write([]byte("late")); err != nil {
		t.Fatal(err)
	}
	if n, err := b.Read(buf); err != nil || string(buf[:n]) != "late" {
		t.Fatalf("read after lifting the deadline: %q, %v", buf[:n], err)
	}
	// A deadline already in the past fails at once, data or no data.
	if _, err := a.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	_ = b.SetReadDeadline(time.Now().Add(-time.Second))
	if _, err := b.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read under a past deadline returned %v", err)
	}
	_ = b.SetReadDeadline(time.Time{})
	if n, err := b.Read(buf); err != nil || string(buf[:n]) != "x" {
		t.Fatalf("byte lost to the expired deadline: %q, %v", buf[:n], err)
	}

	// A write deadline fails a write blocked on a full pipe, reports what
	// it had buffered, and is re-armable.
	big := make([]byte, memPipeBuffer+1)
	for round := 0; round < 2; round++ {
		_ = a.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
		n, err := a.Write(big)
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("round %d: blocked write returned (%d, %v), want deadline exceeded", round, n, err)
		}
		if round == 0 && n != memPipeBuffer {
			t.Fatalf("blocked write buffered %d bytes, want %d", n, memPipeBuffer)
		}
	}
	// SetDeadline covers both directions; a deadline moved while a call
	// is blocked takes effect on that call.
	_ = a.SetDeadline(time.Now().Add(time.Hour))
	errc := make(chan error, 1)
	go func() {
		_, err := a.Read(buf)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	_ = a.SetDeadline(time.Now().Add(10 * time.Millisecond))
	select {
	case err := <-errc:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("read under a shortened deadline returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("shortening the deadline did not reach the blocked read")
	}
}

func TestMemConnClose(t *testing.T) {
	a, b := newMemPipe()
	// Peer close: buffered bytes drain, then io.EOF; writes to it fail.
	if _, err := a.Write([]byte("last words")); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(b)
	if err != nil || string(got) != "last words" {
		t.Fatalf("drain after peer close: %q, %v", got, err)
	}
	if _, err := b.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read past the drain returned %v, want io.EOF", err)
	}
	if _, err := b.Write([]byte("anyone?")); err == nil {
		t.Fatal("write to a closed peer succeeded")
	}
	// Own close: reads and writes fail, closing again is harmless.
	if _, err := a.Write([]byte("x")); err == nil {
		t.Fatal("write after Close succeeded")
	}
	if _, err := a.Read(make([]byte, 1)); err == nil || err == io.EOF {
		t.Fatalf("read after own Close returned %v, want an error other than EOF", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	b.Close()

	// Close unblocks the end's own blocked read and a blocked write.
	c, d := newMemPipe()
	defer d.Close()
	errc := make(chan error, 2)
	go func() {
		_, err := c.Read(make([]byte, 1))
		errc <- err
	}()
	go func() {
		_, err := c.Write(make([]byte, 2*memPipeBuffer))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errc:
			if err == nil || err == io.EOF {
				t.Fatalf("call blocked across Close returned %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Close left a blocked call blocked")
		}
	}
}

// TestMemConnConcurrentStream pushes a long stream through a small
// window in both directions at once, with deadlines being refreshed the
// way wsproto refreshes them per message: the race detector's view of
// the locking, and a check that back-pressure loses or reorders nothing.
func TestMemConnConcurrentStream(t *testing.T) {
	a, b := newMemPipe()
	const total = 8 * memPipeBuffer
	pump := func(w, r *memConn, seed byte) error {
		errc := make(chan error, 1)
		go func() {
			chunk := make([]byte, 1500)
			for sent := 0; sent < total; {
				n := min(len(chunk), total-sent)
				for i := range chunk[:n] {
					chunk[i] = seed + byte(sent+i)
				}
				_ = w.SetWriteDeadline(time.Now().Add(5 * time.Second))
				if _, err := w.Write(chunk[:n]); err != nil {
					errc <- err
					return
				}
				sent += n
			}
			errc <- nil
		}()
		buf := make([]byte, 700)
		for got := 0; got < total; {
			_ = r.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := r.Read(buf)
			if err != nil {
				return err
			}
			for i, c := range buf[:n] {
				if c != seed+byte(got+i) {
					return errors.New("stream corrupted")
				}
			}
			got += n
		}
		return <-errc
	}
	errc := make(chan error, 2)
	go func() { errc <- pump(a, b, 3) }()
	go func() { errc <- pump(b, a, 101) }()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	b.Close()
}

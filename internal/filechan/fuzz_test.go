package filechan

// Fuzz targets for the channel's decoders of bytes this side did not
// write: a GET's reply (client side) and a request with its PUT body
// (server side). Seeds live under testdata/fuzz/.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// counter is a sink that keeps only how many bytes came.
type counter struct{ n uint64 }

func (c *counter) Write(p []byte) (int, error) {
	c.n += uint64(len(p))
	return len(p), nil
}

func FuzzFileChanReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream, data []byte, compressed bool) {
		var sink counter
		var n uint64
		var err error
		alloc := allocated(func() {
			n, err = recvReply(bufio.NewReader(bytes.NewReader(stream)), compressed, &sink)
		})
		if !raceEnabled && alloc > 1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(stream), alloc)
		}
		if n != sink.n {
			t.Fatalf("returned %d bytes, wrote %d", n, sink.n)
		}
		if err == nil { // then the stream held a status and a declared size
			at := 5 + binary.BigEndian.Uint32(stream[1:5])
			if declared := binary.BigEndian.Uint64(stream[at : at+8]); n != declared {
				t.Fatalf("accepted %d bytes against a declared size of %d", n, declared)
			}
		}

		var wire, out bytes.Buffer
		if srcErr, err := sendBody(&wire, appendStatus(nil, nil), bytes.NewReader(data), uint64(len(data)), compressed); srcErr != nil || err != nil {
			t.Fatal(srcErr, err)
		}
		if n, err := recvReply(bufio.NewReader(&wire), compressed, &out); err != nil || n != uint64(len(data)) || !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("round trip of %d bytes: %d bytes, err=%v", len(data), n, err)
		}
	})
}

// sinkStore serves no file and keeps only the size of what is written
// to it.
type sinkStore struct {
	calls int
	got   map[string][]byte // what each accepted write held, when keep is set
	keep  bool
	t     *testing.T
}

func (s *sinkStore) OpenFile(path string) (io.ReadCloser, uint64, error) {
	s.calls++
	return nil, 0, errors.New("no such file")
}

func (s *sinkStore) WriteFileFrom(path string, r io.Reader, size uint64) error {
	s.calls++
	var buf bytes.Buffer
	var sink counter
	var w io.Writer = &sink
	if s.keep {
		w = &buf
	}
	n, err := io.Copy(w, r)
	if err != nil {
		return err
	}
	if uint64(n) != size {
		s.t.Fatalf("a body of %d bytes reached its end against a declared size of %d", n, size)
	}
	if s.keep {
		s.got[path] = buf.Bytes()
	}
	return nil
}

func FuzzFileChanRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream, data []byte, compressed bool) {
		store := &sinkStore{t: t}
		var out counter
		alloc := allocated(func() {
			NewServer(store).serve(bufio.NewReader(bytes.NewReader(stream)), &out)
		})
		// Each request may open a gzip reader and a buffer of its own;
		// none may allocate for what its peer declares.
		if bound := uint64(store.calls+1) << 18; !raceEnabled && alloc > bound {
			t.Fatalf("serving %d requests in %d bytes allocated %d", store.calls, len(stream), alloc)
		}

		keep := &sinkStore{t: t, keep: true, got: map[string][]byte{}}
		var wire, reply bytes.Buffer
		if srcErr, err := sendBody(&wire, appendRequest(nil, opPut, compressed, "/f"), bytes.NewReader(data), uint64(len(data)), compressed); srcErr != nil || err != nil {
			t.Fatal(srcErr, err)
		}
		NewServer(keep).serve(bufio.NewReader(&wire), &reply)
		if err := readStatus(&reply); err != nil || !bytes.Equal(keep.got["/f"], data) {
			t.Fatalf("round trip of %d bytes: stored %d, status %v", len(data), len(keep.got["/f"]), err)
		}
	})
}

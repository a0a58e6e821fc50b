package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gvfs/internal/backend"
)

// faultStore wraps a Store and fails Get/Put with a fixed error,
// standing in for a filesystem-backed store hitting ENOSPC, EIO, etc.,
// or answers each Get and Put only after a delay.
type faultStore struct {
	Store
	getErr error
	putErr error
	delay  time.Duration
}

func (s *faultStore) Get(key string) ([]byte, error) {
	time.Sleep(s.delay)
	if s.getErr != nil {
		return nil, s.getErr
	}
	return s.Store.Get(key)
}

func (s *faultStore) Put(key string, data []byte) error {
	time.Sleep(s.delay)
	if s.putErr != nil {
		return s.putErr
	}
	return s.Store.Put(key, data)
}

func classAndStatus(t *testing.T, err error, class backend.Class, status uint32) {
	t.Helper()
	if err == nil {
		t.Fatal("expected error")
	}
	if got := backend.Classify(err); got != class {
		t.Fatalf("class = %v, want %v (err: %v)", got, class, err)
	}
	var be *backend.Error
	if !errors.As(err, &be) {
		t.Fatalf("not a *backend.Error: %v", err)
	}
	if be.Status != status {
		t.Fatalf("status = %d, want %d (err: %v)", be.Status, status, err)
	}
}

func TestStoreErrorTaxonomy(t *testing.T) {
	fs := &faultStore{Store: NewMemStore()}
	b := New(fs, 4096)
	defer b.Close()
	if err := b.CreateFile("/images/vm.img", bytes.Repeat([]byte{0xab}, 8192)); err != nil {
		t.Fatal(err)
	}
	f := backend.FileID("/images/vm.img")

	// Missing file: NotFound, NFS3ERR_NOENT.
	_, err := b.GetAttr(backend.FileID("/images/absent.img"), backend.CallOpts{})
	classAndStatus(t, err, backend.ClassNotFound, 2)

	// Store out of space on write: IO-class (path alive, breaker- and
	// replica-health-neutral), NFS3ERR_NOSPC.
	fs.putErr = syscall.ENOSPC
	_, err = b.Write(f, 0, []byte("x"), backend.CallOpts{})
	classAndStatus(t, err, backend.ClassIO, 28)

	// Quota exceeded maps the same way.
	fs.putErr = syscall.EDQUOT
	_, err = b.Write(f, 0, []byte("x"), backend.CallOpts{})
	classAndStatus(t, err, backend.ClassIO, 28)
	fs.putErr = nil

	// Media error on read: NFS3ERR_IO.
	fs.getErr = syscall.EIO
	_, err = b.Read(f, 0, 4096, backend.CallOpts{})
	classAndStatus(t, err, backend.ClassIO, 5)

	// Read-only filesystem: NFS3ERR_ROFS.
	fs.getErr = syscall.EROFS
	_, err = b.Read(f, 0, 4096, backend.CallOpts{})
	classAndStatus(t, err, backend.ClassIO, 30)

	// Permission denied: NFS3ERR_ACCES.
	fs.getErr = syscall.EACCES
	_, err = b.Read(f, 0, 4096, backend.CallOpts{})
	classAndStatus(t, err, backend.ClassIO, 13)
	fs.getErr = nil

	// Anything unrecognized stays Unavailable: transport-ish failures
	// must keep counting against the breaker.
	fs.getErr = errors.New("connection reset by peer")
	_, err = b.Read(f, 0, 4096, backend.CallOpts{})
	if got := backend.Classify(err); got != backend.ClassUnavailable {
		t.Fatalf("unknown error class = %v, want Unavailable", got)
	}
	fs.getErr = nil
}

// A deadline that runs out while the store works is ClassTimeout, whatever
// the store answered — a success included — as a reply that comes too
// late over nfs3be is; with time to spare the same calls succeed.
func TestDeadlinePassedDuringStoreCall(t *testing.T) {
	fs := &faultStore{Store: NewMemStore()}
	b := New(fs, 4096)
	if err := b.CreateFile("/images/vm.img", bytes.Repeat([]byte{0xab}, 8192)); err != nil {
		t.Fatal(err)
	}
	f := backend.FileID("/images/vm.img")
	calls := map[string]func(backend.CallOpts) error{
		"read":    func(o backend.CallOpts) error { _, err := b.Read(f, 0, 4096, o); return err },
		"write":   func(o backend.CallOpts) error { _, err := b.Write(f, 0, []byte("x"), o); return err },
		"getattr": func(o backend.CallOpts) error { _, err := b.GetAttr(f, o); return err },
		"lookup": func(o backend.CallOpts) error {
			_, _, err := b.Lookup(backend.FileID("/images"), "vm.img", o)
			return err
		},
		"create": func(o backend.CallOpts) error {
			_, _, err := b.Create(backend.FileID("/images"), "new.img", o)
			return err
		},
	}
	fs.delay = 20 * time.Millisecond
	for op, call := range calls {
		b.cache = make(map[string]*parsed) // every call reaches the store
		err := call(backend.CallOpts{Deadline: time.Now().Add(5 * time.Millisecond)})
		if got := backend.Classify(err); got != backend.ClassTimeout {
			t.Errorf("%s past its deadline: %v (class %v), want ClassTimeout", op, err, got)
		}
		if err := call(backend.CallOpts{Deadline: time.Now().Add(time.Minute)}); err != nil {
			t.Errorf("%s within its deadline: %v", op, err)
		}
	}
}

func TestMissingBlockObjectIsIO(t *testing.T) {
	ms := NewMemStore()
	b := New(ms, 4096)
	defer b.Close()
	if err := b.CreateFile("/images/vm.img", bytes.Repeat([]byte{0xcd}, 4096)); err != nil {
		t.Fatal(err)
	}
	f := backend.FileID("/images/vm.img")

	// Tear the block object out from under the manifest: store-side
	// corruption, surfaced as NFS3ERR_IO, not NOENT.
	keys, err := ms.List(dataPrefix)
	if err != nil || len(keys) == 0 {
		t.Fatalf("no data objects (err=%v)", err)
	}
	for _, k := range keys {
		if err := ms.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	_, err = b.Read(f, 0, 4096, backend.CallOpts{})
	classAndStatus(t, err, backend.ClassIO, 5)
}

// TestTablesBoundedUnderChurn: 100k distinct files created, written and
// read through one Backend leave its manifest cache within manifestMax;
// the write locks are a fixed set of stripes whatever the churn.
func TestTablesBoundedUnderChurn(t *testing.T) {
	b := New(NewMemStore(), 0)
	for i := 0; i < 100_000; i++ {
		fid, _, err := b.Create(backend.FileID("/"), fmt.Sprintf("f%d", i), backend.CallOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if i%1000 == 0 {
			if _, err := b.Write(fid, 0, []byte{byte(i)}, backend.CallOpts{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := len(b.cache); n > manifestMax {
		t.Errorf("%d manifests cached after 100k files, want at most %d", n, manifestMax)
	}
}

// slowManifests holds every manifest Get a moment after reading it,
// widening the gap between a load's read and its caching.
type slowManifests struct{ Store }

func (s slowManifests) Get(key string) ([]byte, error) {
	data, err := s.Store.Get(key)
	if strings.HasPrefix(key, metaPrefix) {
		time.Sleep(20 * time.Microsecond)
	}
	return data, err
}

// TestLoadCannotUndoSave: a manifest a reader loads from the store must
// not replace in the cache one that a Write saved after the load began,
// though the cache is reset under both. Otherwise the next Write builds
// on the older manifest and loses the blocks of the Write before it.
func TestLoadCannotUndoSave(t *testing.T) {
	const bs, writes = 16, 300
	b := New(slowManifests{NewMemStore()}, bs)
	fid, _, err := b.Create(backend.FileID("/"), "f", backend.CallOpts{})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(read bool) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				b.mu.Lock()
				b.cache = make(map[string]*parsed)
				b.mu.Unlock()
				if read {
					b.Read(fid, 0, bs, backend.CallOpts{})
				} else {
					b.GetAttr(fid, backend.CallOpts{})
				}
			}
		}(r == 0)
	}
	want := make([]byte, 0, bs*writes)
	for i := 0; i < writes; i++ {
		block := bytes.Repeat([]byte{byte(i%255 + 1)}, bs)
		if _, err := b.Write(fid, uint64(len(want)), block, backend.CallOpts{}); err != nil {
			t.Fatal(err)
		}
		want = append(want, block...)
	}
	close(stop)
	wg.Wait()
	got, err := b.Read(fid, 0, uint32(len(want)), backend.CallOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Data) != len(want) {
		t.Fatalf("read %d bytes, want %d", len(got.Data), len(want))
	}
	for i := 0; i < writes; i++ {
		if blk := got.Data[i*bs : (i+1)*bs]; !bytes.Equal(blk, want[i*bs:(i+1)*bs]) {
			t.Fatalf("block %d of %d written reads back %x: a Write was lost", i, writes, blk[:1])
		}
	}
}

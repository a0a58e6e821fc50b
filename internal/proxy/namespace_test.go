package proxy

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gvfs/internal/memfs"
	"gvfs/internal/nfs3"
	"gvfs/internal/sunrpc"
)

var namespaceSeeds = flag.Int("namespace-seeds", 20, "seeds TestNamespaceModel runs (CI runs 200)")

// TestNamespaceModel is the name-space slice of a session-consistency
// checker. Two clients of one caching proxy over memfs change a small name
// space at random — CREATE, MKDIR, SYMLINK, LINK, REMOVE, RMDIR, RENAME of
// files and of directories — list directories with READDIRPLUS, Flush now
// and then, and look names up, present and absent; in most seeds the
// attribute table is held to a few dozen entries, so that it evicts all
// the time. Every change goes through the proxy, so the session's view is
// the origin's: every LOOKUP must answer what the origin's name space says.
func TestNamespaceModel(t *testing.T) {
	for seed := 1; seed <= *namespaceSeeds; seed++ {
		t.Run(strconv.Itoa(seed), func(t *testing.T) { namespaceModel(t, int64(seed)) })
	}
}

func namespaceModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fs := memfs.New()
	p, a, root := newChain(t, chainSpec{fs: fs}).client()
	b := nfs3.NewClient(sunrpc.Local{H: p}, sunrpc.UnixCred{UID: 501, GID: 501, MachineName: "model"}.Encode())
	if rng.Intn(4) > 0 {
		p.setTableLimit(8 + rng.Intn(56))
	}
	names := []string{"a", "b", "c", "d", "e"}
	var steps []string
	check := func(c *nfs3.Client, dir nfs3.FH, name string) {
		t.Helper()
		want, _, werr := fs.Lookup(dir, name)
		got, _, err := c.Lookup(dir, name)
		if nfs3.StatusOf(err) != nfs3.StatusOf(werr) || !bytes.Equal(got, want) {
			t.Fatalf("seed %d: LOOKUP %x/%s answered %x, %v; the origin has %x, %v. Steps:\n%s",
				seed, []byte(dir), name, []byte(got), err, []byte(want), werr, strings.Join(steps, "\n"))
		}
	}
	for step := 0; step < 300; step++ {
		dirs, files := originTree(t, fs, root)
		c, other := a, b
		if rng.Intn(2) == 0 {
			c, other = b, a
		}
		dir, name := dirs[rng.Intn(len(dirs))], names[rng.Intn(len(names))]
		to, toName := dirs[rng.Intn(len(dirs))], names[rng.Intn(len(names))]
		var op string
		var err error
		switch r := rng.Intn(100); {
		case r < 35:
			op = "LOOKUP"
		case r < 47:
			op = "CREATE"
			_, _, err = c.Create(dir, name, nfs3.SetAttr{}, rng.Intn(2) == 0)
		case r < 55:
			op = "MKDIR"
			_, _, err = c.Mkdir(dir, name, nfs3.SetAttr{})
		case r < 59:
			op = "SYMLINK"
			_, _, err = c.Symlink(dir, name, "target")
		case r < 65 && len(files) > 0:
			file := files[rng.Intn(len(files))]
			op = fmt.Sprintf("LINK %x as", []byte(file))
			err = c.Link(file, dir, name)
		case r < 74:
			op = "REMOVE"
			err = c.Remove(dir, name)
		case r < 79:
			op = "RMDIR"
			err = c.Rmdir(dir, name)
		case r < 89:
			op = fmt.Sprintf("RENAME to %x/%s:", []byte(to), toName)
			err = c.Rename(dir, name, to, toName)
		case r < 96:
			maxcount := []uint32{512, 4096, nfs3.MaxTransfer}[rng.Intn(3)]
			op = fmt.Sprintf("READDIRPLUS(%d) of", maxcount)
			_, _, err = c.ReadDirPlus(dir, 0, maxcount)
		default:
			op = "Flush at"
			err = p.Flush()
		}
		steps = append(steps, fmt.Sprintf("%3d %s %x/%s: %v", step, op, []byte(dir), name, err))
		check(c, dir, name)
		check(c, to, toName)
		dirs, _ = originTree(t, fs, root)
		check(other, dirs[rng.Intn(len(dirs))], names[rng.Intn(len(names))])
	}
}

// originTree lists the origin's directories, root first, and its other
// files.
func originTree(t *testing.T, fs *memfs.FS, root nfs3.FH) (dirs, files []nfs3.FH) {
	dirs = []nfs3.FH{root}
	for i := 0; i < len(dirs); i++ {
		ents, _, err := fs.ReadDir(dirs[i], 0, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.Attr.Type == nfs3.TypeDir {
				dirs = append(dirs, e.Handle)
			} else {
				files = append(files, e.Handle)
			}
		}
	}
	return dirs, files
}

// nameProcs are the calls whose arguments both the proxy and the origin's
// nfs3.Server decode: the name changes, which handleNameChange decodes
// before it forwards them, and the directory reads.
var nameProcs = []uint32{nfs3.ProcCreate, nfs3.ProcMkdir, nfs3.ProcSymlink, nfs3.ProcLink, nfs3.ProcRemove,
	nfs3.ProcRmdir, nfs3.ProcRename, nfs3.ProcReaddir, nfs3.ProcAccess}

// FuzzNameArgs sends one body as one of nameProcs through a chain and to
// its origin's NFS server. Nothing may panic; the chain refuses the body
// as GARBAGE_ARGS exactly when the origin does; and the attribute table,
// held to a small limit, stays within it.
func FuzzNameArgs(f *testing.F) {
	ch := newChain(f, chainSpec{})
	ch.p.setTableLimit(64)
	root := ch.root
	dir := func(name string) []byte { return (&nfs3.LookupArgs{Dir: root, Name: name}).Encode() }
	fh, attrs := (&nfs3.GetattrArgs{FH: root}).Encode(), make([]byte, 24) // attrs: a SetAttr that sets nothing
	for proc, body := range [][]byte{                                     // one seed per nameProcs entry, in its order
		slices.Concat(dir("a"), make([]byte, 4), attrs),                  // CREATE, UNCHECKED
		slices.Concat(dir("d"), attrs),                                   // MKDIR
		slices.Concat(dir("l"), attrs, []byte{0, 0, 0, 1, 'a', 0, 0, 0}), // SYMLINK l -> a
		slices.Concat(fh, dir("h")),                                      // LINK
		dir("a"), dir("d"),                                               // REMOVE, RMDIR
		slices.Concat(dir("a"), dir("b")),                  // RENAME
		slices.Concat(fh, make([]byte, 18), []byte{16, 0}), // READDIR: cookie, verifier, count
		slices.Concat(fh, []byte{0, 0, 0, 0x3f}),           // ACCESS
	} {
		f.Add(uint8(proc), body)
	}
	f.Fuzz(func(t *testing.T, proc uint8, body []byte) {
		call := func(h sunrpc.Handler) sunrpc.AcceptStat {
			_, stat := h.HandleCall(&sunrpc.Call{Prog: nfs3.Program, Vers: nfs3.Version,
				Proc: nameProcs[int(proc)%len(nameProcs)], Cred: ch.cred, Args: bytes.Clone(body)})
			return stat
		}
		origin, chain := call(ch.origin.H), call(ch.p)
		if (origin == sunrpc.GarbageArgs) != (chain == sunrpc.GarbageArgs) {
			t.Fatalf("%s: the origin answers %v, the chain %v", nfs3.ProcName(nameProcs[int(proc)%len(nameProcs)]), origin, chain)
		}
		if n := ch.p.attrs.len(); n > 64 {
			t.Fatalf("%d entries in a table limited to 64", n)
		}
	})
}

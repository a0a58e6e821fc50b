// Command nfsd runs the userspace NFSv3 + MOUNT server over a host
// directory. It is the end server of a GVFS chain — typically fronted
// by a gvfsd server-side proxy on the image server.
//
// Usage:
//
//	nfsd -listen 127.0.0.1:2049 -root /srv/images -export /
package main

import (
	"flag"
	"fmt"
	"log"

	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/osfs"
	"gvfs/internal/simnet"
	"gvfs/internal/sunrpc"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:2049", "TCP address to listen on")
	root := flag.String("root", ".", "directory to export")
	export := flag.String("export", "/", "MOUNT dirpath of the export")
	flag.Parse()

	backend, err := osfs.New(*root)
	if err != nil {
		log.Fatalf("nfsd: %v", err)
	}
	rootFH, err := backend.Root()
	if err != nil {
		log.Fatalf("nfsd: %v", err)
	}
	srv := sunrpc.NewServer()
	nfsSrv := nfs3.NewServer(backend)
	srv.Register(nfs3.Program, nfs3.Version, nfsSrv)
	md := mountd.NewServer()
	md.Export(*export, rootFH)
	srv.Register(nfs3.MountProgram, nfs3.MountVersion, md)

	l, err := simnet.Listen(*listen, nil)
	if err != nil {
		log.Fatalf("nfsd: %v", err)
	}
	fmt.Printf("nfsd: exporting %s as %s on %s\n", *root, *export, l.Addr())
	log.Fatal(srv.Serve(l))
}

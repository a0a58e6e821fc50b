package nfs3

// Golden wire vectors (testdata/wire/*.hex): the bytes the commit before
// the single XDR codec put on the wire for one value, and one error
// value, of every message this package encodes. Each is held against
// today's encoder and today's decoder, and ten of them (GETATTR3res,
// SETATTR3res, READ3res, WRITE3args, WRITE3res, REMOVE3res, LOOKUP3res,
// READDIRPLUS3args, READDIRPLUS3res and COMMIT3res) against bytes written
// out by hand from RFC 1813. The READDIRPLUS3 vectors came
// with the typed message, from its encoder, and were checked against the
// hand derivation before they went in.

import (
	"bytes"
	"reflect"
	"testing"

	"gvfs/internal/sunrpc"
	"gvfs/internal/wiretest"
	"gvfs/internal/xdr"
)

var (
	goldRoot  = FH("\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10")
	goldFile  = FH("file-handle-1") // 13 bytes: 3 of padding
	goldNew   = FH("new-fh")
	goldStale = FH("stale")

	goldFileAttr = Fattr{Type: TypeReg, Mode: 0644, Nlink: 1, UID: 500, GID: 501,
		Size: 0x123456789a, Used: 0x1234568000, RdevMajor: 8, RdevMinor: 1,
		FSID: 0xfeedface, FileID: 42,
		Atime: Time{1000000000, 1}, Mtime: Time{1000000001, 2}, Ctime: Time{1000000002, 3}}
	goldDirAttr = Fattr{Type: TypeDir, Mode: 0755, Nlink: 2, UID: 500, GID: 501,
		Size: 4096, Used: 4096, FSID: 0xfeedface, FileID: 1,
		Atime: Time{999999990, 0}, Mtime: Time{999999991, 0}, Ctime: Time{999999992, 0}}
	goldPre = WccAttr{Size: goldFileAttr.Size, Mtime: goldFileAttr.Mtime, Ctime: goldFileAttr.Ctime}

	goldMode, goldUID, goldGID = uint32(0600), uint32(1000), uint32(1001)
	goldSize                   = uint64(1 << 33)
	goldSetAll                 = SetAttr{Mode: &goldMode, UID: &goldUID, GID: &goldGID, Size: &goldSize,
		AtimeHow: SetToClient, Atime: Time{7, 8}, MtimeHow: SetToClient, Mtime: Time{9, 10}}
	goldSetServerTime = SetAttr{AtimeHow: SetToServer, MtimeHow: SetToServer}

	// A listing of two entries, the second without attributes or handle.
	goldListing = ReaddirplusRes{Status: OK, DirAttr: &goldDirAttr, Verf: [8]byte{7: 1}, EOF: true,
		Entries: []DirEntry{
			{FileID: 42, Name: "vm.vmdk", Cookie: 1, Attr: &goldFileAttr, Handle: goldFile},
			{FileID: 1, Name: "sub", Cookie: 2},
		}}
)

// built runs an encoder over a fresh Builder.
func built(f func(b *xdr.Builder)) []byte {
	var b xdr.Builder
	f(&b)
	return b.B
}

// decodeWriteRes is WriteRes.DecodeInto on a WriteRes of its own.
func decodeWriteRes(p []byte) (*WriteRes, error) {
	r := &WriteRes{}
	return r, r.DecodeInto(p)
}

// decoded runs a decoder over p and reports its sticky error.
func decoded[T any](p []byte, f func(d *xdr.Decoder) T) (any, error) {
	var d xdr.Decoder
	d.ResetBytes(p)
	v := f(&d)
	if d.Err() == nil && len(d.Rest()) != 0 {
		return v, ErrShortReply // trailing bytes: the decoder stopped early
	}
	return v, d.Err()
}

// TestGoldenMessages: encode(value) is the vector and decode(vector) is
// the value, for every typed message and every shared piece of one.
func TestGoldenMessages(t *testing.T) {
	for _, tc := range []struct {
		name   string
		value  any
		encode func() []byte
		decode func(p []byte) (any, error)
	}{
		{"fattr3", goldFileAttr,
			func() []byte { return built(goldFileAttr.Append) },
			func(p []byte) (any, error) { return decoded(p, DecodeFattr) }},
		{"post_op_attr", &goldDirAttr,
			func() []byte { return built(func(b *xdr.Builder) { AppendPostOpAttr(b, &goldDirAttr) }) },
			func(p []byte) (any, error) { return decoded(p, DecodePostOpAttr) }},
		{"post_op_attr_absent", (*Fattr)(nil),
			func() []byte { return built(func(b *xdr.Builder) { AppendPostOpAttr(b, nil) }) },
			func(p []byte) (any, error) { return decoded(p, DecodePostOpAttr) }},
		{"wcc_data", WccData{Before: &goldPre, After: &goldFileAttr},
			func() []byte { return built((&WccData{Before: &goldPre, After: &goldFileAttr}).Append) },
			func(p []byte) (any, error) { return decoded(p, DecodeWccData) }},
		{"wcc_data_absent", WccData{},
			func() []byte { return built((&WccData{}).Append) },
			func(p []byte) (any, error) { return decoded(p, DecodeWccData) }},
		{"sattr3_all_set", goldSetAll,
			func() []byte { return built(goldSetAll.Append) },
			func(p []byte) (any, error) { return decoded(p, DecodeSetAttr) }},
		{"sattr3_nothing_set", SetAttr{},
			func() []byte { return built((&SetAttr{}).Append) },
			func(p []byte) (any, error) { return decoded(p, DecodeSetAttr) }},
		{"sattr3_server_time", goldSetServerTime,
			func() []byte { return built(goldSetServerTime.Append) },
			func(p []byte) (any, error) { return decoded(p, DecodeSetAttr) }},
		{"post_op_fh3", goldFile,
			func() []byte { return built(func(b *xdr.Builder) { AppendPostOpFH(b, goldFile) }) },
			func(p []byte) (any, error) { return decoded(p, DecodePostOpFH) }},
		{"post_op_fh3_absent", FH(nil),
			func() []byte { return built(func(b *xdr.Builder) { AppendPostOpFH(b, nil) }) },
			func(p []byte) (any, error) { return decoded(p, DecodePostOpFH) }},

		{"GETATTR3args", &GetattrArgs{FH: goldFile}, nil,
			func(p []byte) (any, error) { return DecodeGetattrArgs(p) }},
		{"GETATTR3res", &GetattrRes{Status: OK, Attr: goldFileAttr}, nil,
			func(p []byte) (any, error) { return DecodeGetattrRes(p) }},
		{"GETATTR3res_stale", &GetattrRes{Status: ErrStale}, nil,
			func(p []byte) (any, error) { return DecodeGetattrRes(p) }},
		{"LOOKUP3args", &LookupArgs{Dir: goldRoot, Name: "vm.vmdk"}, nil,
			func(p []byte) (any, error) { return DecodeLookupArgs(p) }},
		{"LOOKUP3res", &LookupRes{Status: OK, Object: goldFile, ObjAttr: &goldFileAttr, DirAttr: &goldDirAttr}, nil,
			func(p []byte) (any, error) { return DecodeLookupRes(p) }},
		{"LOOKUP3res_noent", &LookupRes{Status: ErrNoEnt, DirAttr: &goldDirAttr}, nil,
			func(p []byte) (any, error) { return DecodeLookupRes(p) }},
		{"READLINK3res", &ReadlinkRes{Status: OK, Attr: &goldFileAttr, Target: "../images/base.vmdk"}, nil,
			func(p []byte) (any, error) { return DecodeReadlinkRes(p) }},
		{"READLINK3res_inval", &ReadlinkRes{Status: ErrInval, Attr: &goldFileAttr}, nil,
			func(p []byte) (any, error) { return DecodeReadlinkRes(p) }},
		{"READ3args", &ReadArgs{FH: goldFile, Offset: 1 << 33, Count: 8192}, nil,
			func(p []byte) (any, error) { return DecodeReadArgs(p) }},
		{"READ3res", &ReadRes{Status: OK, Attr: &goldFileAttr, Count: 11, EOF: true, Data: []byte("hello world")}, nil,
			func(p []byte) (any, error) { return DecodeReadRes(p) }},
		{"READ3res_io", &ReadRes{Status: ErrIO, Attr: &goldFileAttr}, nil,
			func(p []byte) (any, error) { return DecodeReadRes(p) }},
		{"WRITE3args", &WriteArgs{FH: goldFile, Offset: 4096, Count: 5, Stable: FileSync, Data: []byte("abcde")}, nil,
			func(p []byte) (any, error) { return DecodeWriteArgs(p) }},
		{"WRITE3res", &WriteRes{Status: OK, Wcc: WccData{Before: &goldPre, After: &goldFileAttr}, Count: 5, Committed: FileSync, Verf: WriteVerf}, nil,
			func(p []byte) (any, error) { return decodeWriteRes(p) }},
		{"WRITE3res_nospc", &WriteRes{Status: ErrNoSpc, Wcc: WccData{After: &goldFileAttr}}, nil,
			func(p []byte) (any, error) { return decodeWriteRes(p) }},
		{"SETATTR3args", &SetattrArgs{FH: goldFile, Attr: goldSetAll}, nil,
			func(p []byte) (any, error) { return DecodeSetattrArgs(p) }},
		{"COMMIT3args", &CommitArgs{FH: goldFile, Offset: 65536, Count: 32768}, nil,
			func(p []byte) (any, error) { return DecodeCommitArgs(p) }},
		{"READDIRPLUS3args", &ReaddirplusArgs{Dir: goldRoot, Cookie: 7, DirCount: 1024, MaxCount: 4096}, nil,
			func(p []byte) (any, error) { return DecodeReaddirplusArgs(p) }},
		{"READDIRPLUS3res", &goldListing, nil,
			func(p []byte) (any, error) { return DecodeReaddirplusRes(p) }},
		{"READDIRPLUS3res_notdir", &ReaddirplusRes{Status: ErrNotDir, DirAttr: &goldFileAttr}, nil,
			func(p []byte) (any, error) { return DecodeReaddirplusRes(p) }},
	} {
		if tc.encode == nil { // a message type: its own Encode
			tc.encode = tc.value.(interface{ Encode() []byte }).Encode
		}
		wiretest.Check(t, tc.name, tc.encode())
		got, err := tc.decode(wiretest.Vector(t, tc.name))
		if err != nil || !reflect.DeepEqual(got, tc.value) {
			t.Errorf("%s decodes to %+v (err=%v), want %+v", tc.name, got, err, tc.value)
		}
	}
}

// Vectors spelled by hand from RFC 1813, so that the encoder and decoder,
// which share wire.go, cannot be wrong together unnoticed.
func TestGoldenVectorsAgainstRFC1813(t *testing.T) {
	fileAttr := []byte{ // §2.6 fattr3, 21 words
		0, 0, 0, 1, // type = NF3REG
		0, 0, 0x01, 0xa4, // mode = 0644
		0, 0, 0, 1, // nlink
		0, 0, 0x01, 0xf4, // uid = 500
		0, 0, 0x01, 0xf5, // gid = 501
		0, 0, 0, 0x12, 0x34, 0x56, 0x78, 0x9a, // size
		0, 0, 0, 0x12, 0x34, 0x56, 0x80, 0x00, // used
		0, 0, 0, 8, 0, 0, 0, 1, // rdev = specdata3{8, 1}
		0, 0, 0, 0, 0xfe, 0xed, 0xfa, 0xce, // fsid
		0, 0, 0, 0, 0, 0, 0, 42, // fileid
		0x3b, 0x9a, 0xca, 0x00, 0, 0, 0, 1, // atime = nfstime3{1000000000, 1}
		0x3b, 0x9a, 0xca, 0x01, 0, 0, 0, 2, // mtime
		0x3b, 0x9a, 0xca, 0x02, 0, 0, 0, 3, // ctime
	}
	dirAttr := []byte{
		0, 0, 0, 2, // type = NF3DIR
		0, 0, 0x01, 0xed, // mode = 0755
		0, 0, 0, 2, // nlink
		0, 0, 0x01, 0xf4, // uid
		0, 0, 0x01, 0xf5, // gid
		0, 0, 0, 0, 0, 0, 0x10, 0x00, // size = 4096
		0, 0, 0, 0, 0, 0, 0x10, 0x00, // used
		0, 0, 0, 0, 0, 0, 0, 0, // rdev
		0, 0, 0, 0, 0xfe, 0xed, 0xfa, 0xce, // fsid
		0, 0, 0, 0, 0, 0, 0, 1, // fileid
		0x3b, 0x9a, 0xc9, 0xf6, 0, 0, 0, 0, // atime = {999999990, 0}
		0x3b, 0x9a, 0xc9, 0xf7, 0, 0, 0, 0, // mtime
		0x3b, 0x9a, 0xc9, 0xf8, 0, 0, 0, 0, // ctime
	}
	fileFH := []byte{
		0, 0, 0, 13, // nfs_fh3: opaque<64> length
		'f', 'i', 'l', 'e', '-', 'h', 'a', 'n', 'd', 'l', 'e', '-', '1', 0, 0, 0, // + 3 of padding
	}
	fileWcc := []byte{ // §2.6 wcc_attr: size3 size, nfstime3 mtime, nfstime3 ctime
		0, 0, 0, 0x12, 0x34, 0x56, 0x78, 0x9a, // size
		0x3b, 0x9a, 0xca, 0x01, 0, 0, 0, 2, // mtime
		0x3b, 0x9a, 0xca, 0x02, 0, 0, 0, 3, // ctime
	}
	dirWcc := []byte{ // the directory's wcc_attr
		0, 0, 0, 0, 0, 0, 0x10, 0x00, // size = 4096
		0x3b, 0x9a, 0xc9, 0xf7, 0, 0, 0, 0, // mtime
		0x3b, 0x9a, 0xc9, 0xf8, 0, 0, 0, 0, // ctime
	}
	verf := []byte("gvfsnfs3") // writeverf3: 8 opaque bytes, no length
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	// §3.3.1 GETATTR3resok: status, fattr3 obj_attributes — attributes
	// that always follow, so no attributes_follow word.
	wiretest.Check(t, "GETATTR3res", cat(
		[]byte{0, 0, 0, 0}, // NFS3_OK
		fileAttr,
	))
	// GETATTR3res default arm: status, and void.
	wiretest.Check(t, "GETATTR3res_stale", []byte{0, 0, 0, 70}) // NFS3ERR_STALE
	// §3.3.6 READ3resok: status, post_op_attr file_attributes, count3
	// count, bool eof, opaque data<>.
	wiretest.Check(t, "READ3res", cat(
		[]byte{0, 0, 0, 0}, // NFS3_OK
		[]byte{0, 0, 0, 1}, // attributes_follow
		fileAttr,
		[]byte{0, 0, 0, 11},              // count
		[]byte{0, 0, 0, 1},               // eof = TRUE
		[]byte{0, 0, 0, 11},              // data length
		[]byte("hello world"), []byte{0}, // data + 1 of padding
	))
	// READ3resfail: status, post_op_attr file_attributes — the reply a
	// failure with a status gets, through every proxy, with attributes or
	// without.
	wiretest.Check(t, "READ3res_io", cat(
		[]byte{0, 0, 0, 5}, // NFS3ERR_IO
		[]byte{0, 0, 0, 1}, fileAttr,
	))
	wiretest.Check(t, "read_stale.res", cat(
		[]byte{0, 0, 0, 70}, // NFS3ERR_STALE
		[]byte{0, 0, 0, 0},  // no attributes
	))
	// §3.3.7 WRITE3args: nfs_fh3 file, offset3 offset, count3 count,
	// stable_how stable, opaque data<>.
	wiretest.Check(t, "WRITE3args", cat(
		fileFH,
		[]byte{0, 0, 0, 0, 0, 0, 0x10, 0x00}, // offset = 4096
		[]byte{0, 0, 0, 5},                   // count
		[]byte{0, 0, 0, 2},                   // stable = FILE_SYNC
		[]byte{0, 0, 0, 5},                   // data length
		[]byte("abcde"), []byte{0, 0, 0},     // data + 3 of padding
	))
	// §3.3.7 WRITE3resok: status, wcc_data file_wcc { pre_op_attr before,
	// post_op_attr after }, count3 count, stable_how committed, writeverf3
	// verf — both halves present, as a relay passes the origin's on.
	wiretest.Check(t, "WRITE3res", cat(
		[]byte{0, 0, 0, 0},          // NFS3_OK
		[]byte{0, 0, 0, 1}, fileWcc, // before: attributes_follow, wcc_attr
		[]byte{0, 0, 0, 1}, fileAttr, // after: attributes_follow, fattr3
		[]byte{0, 0, 0, 5}, // count
		[]byte{0, 0, 0, 2}, // committed = FILE_SYNC
		verf,
	))
	// WRITE3resfail: status, wcc_data file_wcc — here only the after half.
	wiretest.Check(t, "WRITE3res_nospc", cat(
		[]byte{0, 0, 0, 28},          // NFS3ERR_NOSPC
		[]byte{0, 0, 0, 0},           // before: no attributes
		[]byte{0, 0, 0, 1}, fileAttr, // after
	))
	// §3.3.2 SETATTR3res: status, wcc_data obj_wcc — one body for the
	// resok and resfail arms alike; the server reports the file's
	// attributes before and after, and after a refusal as well.
	wiretest.Check(t, "setattr.res", cat(
		[]byte{0, 0, 0, 0},          // NFS3_OK
		[]byte{0, 0, 0, 1}, fileWcc, // before: attributes_follow, wcc_attr
		[]byte{0, 0, 0, 1}, fileAttr, // after: attributes_follow, fattr3
	))
	wiretest.Check(t, "setattr_inval.res", cat(
		[]byte{0, 0, 0, 22},         // NFS3ERR_INVAL
		[]byte{0, 0, 0, 1}, fileWcc, // before
		[]byte{0, 0, 0, 1}, fileAttr, // after
	))
	// §3.3.12 REMOVE3res: status, wcc_data dir_wcc — one body for the
	// resok and resfail arms alike.
	wiretest.Check(t, "remove.res", cat(
		[]byte{0, 0, 0, 0},         // NFS3_OK
		[]byte{0, 0, 0, 1}, dirWcc, // before: attributes_follow, wcc_attr
		[]byte{0, 0, 0, 1}, dirAttr, // after
	))
	// §3.3.8 CREATE3resok: status, post_op_fh3 obj, post_op_attr
	// obj_attributes, wcc_data dir_wcc.
	wiretest.Check(t, "create.res", cat(
		[]byte{0, 0, 0, 0},                                 // NFS3_OK
		[]byte{0, 0, 0, 1},                                 // handle_follows
		[]byte{0, 0, 0, 6}, []byte("new-fh"), []byte{0, 0}, // nfs_fh3 + 2 of padding
		[]byte{0, 0, 0, 1}, fileAttr, // obj_attributes
		[]byte{0, 0, 0, 1}, dirWcc, // dir_wcc before
		[]byte{0, 0, 0, 1}, dirAttr, // dir_wcc after
	))
	// §3.3.14 RENAME3resok: status, wcc_data fromdir_wcc, wcc_data
	// todir_wcc — here a rename within one directory, so both are its.
	wiretest.Check(t, "rename.res", cat(
		[]byte{0, 0, 0, 0},         // NFS3_OK
		[]byte{0, 0, 0, 1}, dirWcc, // fromdir_wcc before
		[]byte{0, 0, 0, 1}, dirAttr, // fromdir_wcc after
		[]byte{0, 0, 0, 1}, dirWcc, // todir_wcc before
		[]byte{0, 0, 0, 1}, dirAttr, // todir_wcc after
	))
	// §3.3.5 READLINK3resok: status, post_op_attr symlink_attributes,
	// nfspath3 data.
	wiretest.Check(t, "readlink.res", cat(
		[]byte{0, 0, 0, 0},           // NFS3_OK
		[]byte{0, 0, 0, 1}, fileAttr, // symlink_attributes
		[]byte{0, 0, 0, 19}, []byte("../images/base.vmdk"), []byte{0}, // data + 1 of padding
	))
	// READLINK3resfail: status, post_op_attr symlink_attributes.
	wiretest.Check(t, "readlink_inval.res", cat(
		[]byte{0, 0, 0, 22}, // NFS3ERR_INVAL
		[]byte{0, 0, 0, 1}, fileAttr,
	))
	// §3.3.21 COMMIT3resok: status, wcc_data file_wcc, writeverf3 verf —
	// the server's reply to a COMMIT it made no pre-operation record for.
	wiretest.Check(t, "commit.res", cat(
		[]byte{0, 0, 0, 0},           // NFS3_OK
		[]byte{0, 0, 0, 0},           // before: no attributes
		[]byte{0, 0, 0, 1}, fileAttr, // after
		verf,
	))
	// COMMIT3resfail: status, wcc_data file_wcc — here neither half.
	wiretest.Check(t, "commit_stale.res", cat(
		[]byte{0, 0, 0, 70}, // NFS3ERR_STALE
		[]byte{0, 0, 0, 0},  // before: no attributes
		[]byte{0, 0, 0, 0},  // after: no attributes
	))
	// §3.3.3 LOOKUP3resok: status, nfs_fh3 object, post_op_attr
	// obj_attributes, post_op_attr dir_attributes.
	wiretest.Check(t, "LOOKUP3res", cat(
		[]byte{0, 0, 0, 0}, // NFS3_OK
		fileFH,
		[]byte{0, 0, 0, 1}, fileAttr,
		[]byte{0, 0, 0, 1}, dirAttr,
	))
	// LOOKUP3resfail: status, post_op_attr dir_attributes.
	wiretest.Check(t, "LOOKUP3res_noent", cat(
		[]byte{0, 0, 0, 2}, // NFS3ERR_NOENT
		[]byte{0, 0, 0, 1}, dirAttr,
	))
	// §3.3.17 READDIRPLUS3args: nfs_fh3 dir, cookie3 cookie, cookieverf3
	// cookieverf, count3 dircount, count3 maxcount.
	wiretest.Check(t, "READDIRPLUS3args", cat(
		[]byte{0, 0, 0, 16}, []byte(goldRoot), // dir: 16 bytes, no padding
		[]byte{0, 0, 0, 0, 0, 0, 0, 7}, // cookie
		[]byte{0, 0, 0, 0, 0, 0, 0, 0}, // cookieverf
		[]byte{0, 0, 0x04, 0x00},       // dircount = 1024
		[]byte{0, 0, 0x10, 0x00},       // maxcount = 4096
	))
	// READDIRPLUS3resok: status, post_op_attr dir_attributes, cookieverf3
	// cookieverf, dirlistplus3 { entryplus3 *entries; bool eof } — a list
	// is a value_follows word before each entry and a FALSE one after the
	// last; an entryplus3 is fileid3 fileid, filename3 name, cookie3
	// cookie, post_op_attr name_attributes, post_op_fh3 name_handle.
	wiretest.Check(t, "READDIRPLUS3res", cat(
		[]byte{0, 0, 0, 0}, // NFS3_OK
		[]byte{0, 0, 0, 1}, dirAttr,
		[]byte{0, 0, 0, 0, 0, 0, 0, 1},                   // cookieverf
		[]byte{0, 0, 0, 1},                               // value_follows
		[]byte{0, 0, 0, 0, 0, 0, 0, 42},                  // fileid
		[]byte{0, 0, 0, 7}, []byte("vm.vmdk"), []byte{0}, // name + 1 of padding
		[]byte{0, 0, 0, 0, 0, 0, 0, 1}, // cookie
		[]byte{0, 0, 0, 1}, fileAttr,   // name_attributes
		[]byte{0, 0, 0, 1}, fileFH, // name_handle
		[]byte{0, 0, 0, 1},                           // value_follows
		[]byte{0, 0, 0, 0, 0, 0, 0, 1},               // fileid
		[]byte{0, 0, 0, 3}, []byte("sub"), []byte{0}, // name + 1 of padding
		[]byte{0, 0, 0, 0, 0, 0, 0, 2}, // cookie
		[]byte{0, 0, 0, 0},             // no name_attributes
		[]byte{0, 0, 0, 0},             // no name_handle
		[]byte{0, 0, 0, 0},             // no more entries
		[]byte{0, 0, 0, 1},             // eof = TRUE
	))
	// READDIRPLUS3resfail: status, post_op_attr dir_attributes.
	wiretest.Check(t, "READDIRPLUS3res_notdir", cat(
		[]byte{0, 0, 0, 20}, // NFS3ERR_NOTDIR
		[]byte{0, 0, 0, 1}, fileAttr,
	))
}

// goldenFS is a Backend over a fixed world — a root directory holding one
// file, one symlink and one subdirectory — that answers the calls the
// golden cases make and refuses, with NFS3ERR_INVAL, arguments that are
// not the ones the case sent: a server that misdecodes them shows up as a
// wrong reply.
type goldenFS struct{}

var goldLink, goldSub = FH("link"), FH("sub-dir-handle")

func inval() error { return &Error{Status: ErrInval} }

func (goldenFS) Root() (FH, error) { return goldRoot, nil }

func (goldenFS) GetAttr(fh FH) (Fattr, error) {
	switch string(fh) {
	case string(goldRoot), string(goldSub):
		return goldDirAttr, nil
	case string(goldFile), string(goldLink), string(goldNew):
		return goldFileAttr, nil
	}
	return Fattr{}, &Error{Status: ErrStale}
}

func (goldenFS) SetAttr(fh FH, s SetAttr) (Fattr, error) {
	if !bytes.Equal(fh, goldFile) || !reflect.DeepEqual(s, goldSetAll) {
		return Fattr{}, inval()
	}
	return goldFileAttr, nil
}

func (goldenFS) Lookup(dir FH, name string) (FH, Fattr, error) {
	if !bytes.Equal(dir, goldRoot) {
		return nil, Fattr{}, inval()
	}
	switch name {
	case "vm.vmdk":
		return goldFile, goldFileAttr, nil
	case "sub":
		return goldSub, goldDirAttr, nil
	}
	return nil, Fattr{}, &Error{Status: ErrNoEnt}
}

func (goldenFS) ReadLink(fh FH) (string, error) {
	if !bytes.Equal(fh, goldLink) {
		return "", inval()
	}
	return "../images/base.vmdk", nil
}

func (goldenFS) Read(fh FH, off uint64, count uint32) ([]byte, bool, error) {
	if bytes.Equal(fh, goldStale) {
		return nil, false, &Error{Status: ErrStale}
	}
	if !bytes.Equal(fh, goldFile) || off != 1<<33 || count != 8192 {
		return nil, false, inval()
	}
	return []byte("hello world"), true, nil
}

func (goldenFS) Write(fh FH, off uint64, data []byte) (Fattr, error) {
	if !bytes.Equal(fh, goldFile) || string(data) != "abcde" {
		return Fattr{}, inval()
	}
	if off != 4096 {
		return Fattr{}, &Error{Status: ErrNoSpc}
	}
	return goldFileAttr, nil
}

func (goldenFS) Create(dir FH, name string, attr SetAttr, guarded bool) (FH, Fattr, error) {
	if !bytes.Equal(dir, goldRoot) || !reflect.DeepEqual(attr, SetAttr{Mode: &goldMode}) {
		return nil, Fattr{}, inval()
	}
	if guarded != (name == "vm.vmdk") {
		return nil, Fattr{}, inval()
	}
	if guarded {
		return nil, Fattr{}, &Error{Status: ErrExist}
	}
	return goldNew, goldFileAttr, nil
}

func (goldenFS) Mkdir(dir FH, name string, attr SetAttr) (FH, Fattr, error) {
	if !bytes.Equal(dir, goldRoot) || name != "sub" || !reflect.DeepEqual(attr, SetAttr{Mode: &goldMode}) {
		return nil, Fattr{}, inval()
	}
	return goldSub, goldDirAttr, nil
}

func (goldenFS) Symlink(dir FH, name, target string) (FH, Fattr, error) {
	if !bytes.Equal(dir, goldRoot) || name != "base" || target != "../images/base.vmdk" {
		return nil, Fattr{}, inval()
	}
	return goldLink, goldFileAttr, nil
}

func (goldenFS) Remove(dir FH, name string) error {
	if !bytes.Equal(dir, goldRoot) || name != "vm.vmdk" {
		return inval()
	}
	return nil
}

func (goldenFS) Rmdir(dir FH, name string) error {
	if !bytes.Equal(dir, goldRoot) || name != "sub" {
		return inval()
	}
	return &Error{Status: ErrNotEmpty}
}

func (goldenFS) Rename(fromDir FH, fromName string, toDir FH, toName string) error {
	if !bytes.Equal(fromDir, goldRoot) || fromName != "vm.vmdk" || !bytes.Equal(toDir, goldSub) || toName != "vm-2.vmdk" {
		return inval()
	}
	return nil
}

// goldEntries is the root's listing. The second entry has no handle of
// its own: READDIRPLUS fills it in with a LOOKUP.
var goldEntries = []DirEntry{
	{FileID: 42, Name: "vm.vmdk", Cookie: 1, Attr: &goldFileAttr, Handle: goldFile},
	{FileID: 1, Name: "sub", Cookie: 2},
}

func (goldenFS) ReadDir(dir FH, cookie uint64, maxBytes uint32) ([]DirEntry, bool, error) {
	if bytes.Equal(dir, goldFile) {
		return nil, false, &Error{Status: ErrNotDir}
	}
	if !bytes.Equal(dir, goldRoot) || cookie != 7 || maxBytes != 4096 {
		return nil, false, inval()
	}
	return goldEntries, true, nil
}

var goldFSStat = FSStatRes{TotalBytes: 1 << 40, FreeBytes: 1 << 39, AvailBytes: 1 << 38,
	TotalFiles: 1 << 20, FreeFiles: 1 << 19, AvailFiles: 1 << 18, Invarsec: 30}

func (goldenFS) FSStat(fh FH) (FSStatRes, error) {
	if !bytes.Equal(fh, goldRoot) {
		return FSStatRes{}, &Error{Status: ErrStale}
	}
	return goldFSStat, nil
}

func (goldenFS) Commit(fh FH) error {
	if !bytes.Equal(fh, goldFile) {
		return &Error{Status: ErrStale}
	}
	return nil
}

// vectorCaller stands between a Client and a Server with the vectors in
// the middle: the arguments the client encoded must be <name>.args, the
// server is handed that vector and its reply must be <name>.res, and the
// client is handed that vector to decode.
type vectorCaller struct {
	t    *testing.T
	srv  *Server
	name string
}

func (v *vectorCaller) Call(prog, vers, proc uint32, cred sunrpc.OpaqueAuth, args []byte) ([]byte, error) {
	wiretest.Check(v.t, v.name+".args", args)
	res, stat := v.srv.HandleCall(&sunrpc.Call{Prog: prog, Vers: vers, Proc: proc, Cred: cred,
		Args: wiretest.Vector(v.t, v.name+".args")})
	if stat != sunrpc.Success {
		v.t.Errorf("%s: server answered %v", v.name, stat)
	}
	wiretest.Check(v.t, v.name+".res", res)
	return wiretest.Vector(v.t, v.name+".res"), nil
}

// TestGoldenCalls drives every Client method, and through RawCall the
// procedures it has no method for, across vectorCaller: the bodies
// client.go and server.go build inline are held to vectors too.
func TestGoldenCalls(t *testing.T) {
	type result struct {
		vals []any
		st   Status
	}
	ok := func(vals ...any) result { return result{vals: vals} }
	failed := func(st Status) result { return result{st: st} }
	fhArgs := func(fh FH) []byte { return (&GetattrArgs{FH: fh}).Encode() }

	for _, tc := range []struct {
		name string
		do   func(c *Client) ([]any, error)
		want result
	}{
		{"getattr", func(c *Client) ([]any, error) {
			a, err := c.GetAttr(goldFile)
			return []any{a}, err
		}, ok(goldFileAttr)},
		{"getattr_stale", func(c *Client) ([]any, error) {
			_, err := c.GetAttr(goldStale)
			return nil, err
		}, failed(ErrStale)},
		{"setattr", func(c *Client) ([]any, error) {
			a, err := c.SetAttr(goldFile, goldSetAll)
			return []any{a}, err
		}, ok(&goldFileAttr)},
		{"setattr_inval", func(c *Client) ([]any, error) {
			_, err := c.SetAttr(goldFile, goldSetServerTime)
			return nil, err
		}, failed(ErrInval)},
		{"lookup", func(c *Client) ([]any, error) {
			fh, a, err := c.Lookup(goldRoot, "vm.vmdk")
			return []any{fh, a}, err
		}, ok(goldFile, &goldFileAttr)},
		{"lookup_noent", func(c *Client) ([]any, error) {
			_, _, err := c.Lookup(goldRoot, "missing")
			return nil, err
		}, failed(ErrNoEnt)},
		{"access", func(c *Client) ([]any, error) {
			granted, err := c.Access(goldFile, AccessRead|AccessModify|AccessExtend|AccessExecute)
			return []any{granted}, err
		}, ok(AccessRead | AccessModify | AccessExtend | AccessExecute)},
		{"access_stale", func(c *Client) ([]any, error) {
			_, err := c.Access(goldStale, AccessRead)
			return nil, err
		}, failed(ErrStale)},
		{"readlink", func(c *Client) ([]any, error) {
			target, err := c.ReadLink(goldLink)
			return []any{target}, err
		}, ok("../images/base.vmdk")},
		{"readlink_inval", func(c *Client) ([]any, error) {
			_, err := c.ReadLink(goldFile)
			return nil, err
		}, failed(ErrInval)},
		{"read", func(c *Client) ([]any, error) {
			data, eof, err := c.Read(goldFile, 1<<33, 8192)
			return []any{data, eof}, err
		}, ok([]byte("hello world"), true)},
		{"read_stale", func(c *Client) ([]any, error) {
			_, _, err := c.Read(goldStale, 0, 8192)
			return nil, err
		}, failed(ErrStale)},
		{"write", func(c *Client) ([]any, error) {
			n, a, err := c.Write(goldFile, 4096, []byte("abcde"), FileSync)
			return []any{n, a}, err
		}, ok(uint32(5), &goldFileAttr)},
		{"write_nospc", func(c *Client) ([]any, error) {
			_, _, err := c.Write(goldFile, 1<<40, []byte("abcde"), Unstable)
			return nil, err
		}, failed(ErrNoSpc)},
		{"create", func(c *Client) ([]any, error) {
			fh, a, err := c.Create(goldRoot, "state.vmss", SetAttr{Mode: &goldMode}, false)
			return []any{fh, a}, err
		}, ok(goldNew, &goldFileAttr)},
		{"create_guarded_exist", func(c *Client) ([]any, error) {
			_, _, err := c.Create(goldRoot, "vm.vmdk", SetAttr{Mode: &goldMode}, true)
			return nil, err
		}, failed(ErrExist)},
		{"mkdir", func(c *Client) ([]any, error) {
			fh, a, err := c.Mkdir(goldRoot, "sub", SetAttr{Mode: &goldMode})
			return []any{fh, a}, err
		}, ok(goldSub, &goldDirAttr)},
		{"symlink", func(c *Client) ([]any, error) {
			fh, a, err := c.Symlink(goldRoot, "base", "../images/base.vmdk")
			return []any{fh, a}, err
		}, ok(goldLink, &goldFileAttr)},
		{"remove", func(c *Client) ([]any, error) {
			return nil, c.Remove(goldRoot, "vm.vmdk")
		}, ok()},
		{"rmdir_notempty", func(c *Client) ([]any, error) {
			return nil, c.Rmdir(goldRoot, "sub")
		}, failed(ErrNotEmpty)},
		{"rename", func(c *Client) ([]any, error) {
			return nil, c.Rename(goldRoot, "vm.vmdk", goldSub, "vm-2.vmdk")
		}, ok()},
		{"rename_inval", func(c *Client) ([]any, error) {
			return nil, c.Rename(goldSub, "a", goldRoot, "b")
		}, failed(ErrInval)},
		{"readdir", func(c *Client) ([]any, error) {
			ents, eof, err := c.ReadDir(goldRoot, 7, 4096)
			return []any{ents, eof}, err
		}, ok([]DirEntry{{FileID: 42, Name: "vm.vmdk", Cookie: 1}, {FileID: 1, Name: "sub", Cookie: 2}}, true)},
		{"readdir_notdir", func(c *Client) ([]any, error) {
			_, _, err := c.ReadDir(goldFile, 0, 4096)
			return nil, err
		}, failed(ErrNotDir)},
		{"readdirplus", func(c *Client) ([]any, error) {
			ents, eof, err := c.ReadDirPlus(goldRoot, 7, 4096)
			return []any{ents, eof}, err
		}, ok([]DirEntry{goldEntries[0], {FileID: 1, Name: "sub", Cookie: 2, Attr: &goldDirAttr, Handle: goldSub}}, true)},
		{"readdirplus_notdir", func(c *Client) ([]any, error) {
			_, _, err := c.ReadDirPlus(goldFile, 0, 4096)
			return nil, err
		}, failed(ErrNotDir)},
		{"fsstat", func(c *Client) ([]any, error) {
			st, err := c.FSStat(goldRoot)
			return []any{st}, err
		}, ok(goldFSStat)},
		{"fsstat_stale", func(c *Client) ([]any, error) {
			_, err := c.FSStat(goldStale)
			return nil, err
		}, failed(ErrStale)},
		{"fsinfo", func(c *Client) ([]any, error) {
			info, err := c.FSInfo(goldRoot)
			return []any{info}, err
		}, ok(DefaultFSInfo())},
		{"commit", func(c *Client) ([]any, error) {
			return nil, c.Commit(goldFile, 65536, 32768)
		}, ok()},
		{"commit_stale", func(c *Client) ([]any, error) {
			return nil, c.Commit(goldStale, 0, 0)
		}, failed(ErrStale)},
		// No Client method: the reply is held to its vector only.
		{"pathconf", func(c *Client) ([]any, error) {
			_, err := c.RawCall(ProcPathconf, fhArgs(goldRoot))
			return nil, err
		}, ok()},
		{"mknod_notsupp", func(c *Client) ([]any, error) {
			_, err := c.RawCall(ProcMknod, fhArgs(goldRoot))
			return nil, err
		}, ok()},
		{"link_notsupp", func(c *Client) ([]any, error) {
			_, err := c.RawCall(ProcLink, fhArgs(goldFile))
			return nil, err
		}, ok()},
	} {
		vc := &vectorCaller{t: t, srv: NewServer(goldenFS{}), name: tc.name}
		vals, err := tc.do(NewClient(vc, sunrpc.AuthNoneCred))
		if tc.want.st != OK {
			if e, isStatus := err.(*Error); !isStatus || e.Status != tc.want.st {
				t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want.st)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(vals, tc.want.vals) {
			t.Errorf("%s: client decoded %+v (err=%v), want %+v", tc.name, vals, err, tc.want.vals)
		}
	}
}

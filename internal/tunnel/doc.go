// Package tunnel provides encrypted, authenticated private data
// channels between GVFS proxies. It stands in for the SSH tunnels the
// paper uses to carry inter-proxy RPC traffic across administrative
// domains: all bytes are sealed with AES-256-GCM under keys derived
// from a session key distributed by the middleware (the paper's
// short-lived, per-session credentials).
//
// A tunnel endpoint wraps any net.Conn and itself satisfies net.Conn,
// so the RPC and file-channel layers are oblivious to whether their
// transport is private — the same transparency property the paper's
// SSH port forwarding has.
//
// # Wire format
//
// Handshake: the initiator sends "GVFSTUN4" ‖ clientNonce, the
// responder answers "GVFSTUN4" ‖ serverNonce; both nonces are 16
// random bytes. Any other magic (an older peer included: GVFSTUN2 has no
// elided frames, GVFSTUN3 no deflated ones, and either would read a
// length word with a form's flag set as an oversized length) is
// ErrHandshake. The session key itself never crosses the wire, so a
// peer with the wrong key completes the handshake and fails its first
// frame with ErrAuth.
//
// Keys: each direction has its own AES-256-GCM key,
//
//	HMAC-SHA256(sessionKey, "gvfs-tunnel-aead-"+role ‖ clientNonce ‖ serverNonce)
//
// with role "client" for initiator→responder and "server" for the
// reverse. Fresh nonces make the keys unique to the connection, which
// is what lets the per-frame GCM nonce be a plain counter.
//
// Frame: len ‖ ciphertext ‖ tag, where len is a 4-byte big-endian
// word — the length of the sealed body in its low 30 bits (≤ 1 MiB,
// checked before anything is buffered), the elided flag in its top bit
// and the deflated flag in the bit below; a word with both flags set is
// refused — and tag is 16 bytes. The GCM nonce is four zero bytes followed by
// the 64-bit big-endian frame sequence number of that direction,
// starting at 0; len is the additional data. The tag therefore binds
// content, length, form and position: tampering, replay, reordering and
// truncation all fail authentication. One Write of up to 1 MiB is one
// frame.
//
// Zero elision: runs of zero bytes cross as lengths. The sender probes
// the 8 bytes at every 512th offset of a chunk and widens a zero word
// both ways; runs of 512 bytes or more found that way (any run of 519 is)
// are taken out, and if that makes the body at least 512 bytes shorter
// it is sealed, with the flag set, as triples
//
//	literal length ‖ zero length ‖ literal bytes   (lengths 4 bytes, big-endian)
//
// each meaning "these bytes, then that many zeros". Otherwise the chunk
// is sealed as it is, flags clear, unless it crosses deflated (below): a
// frame with nothing worth eliding or deflating is byte for byte what it
// was before there were other forms. The receiver checks an elided body
// whole before delivering any of it — triples complete, literals inside
// the body, at most 1 MiB once expanded — and writes the zeros straight
// into the reader's buffer.
//
// Deflation: a chunk that elision leaves whole is sealed deflated, flag
// set, when the link holds the writer back and the body is at least an
// eighth shorter than the chunk. The body is one complete deflate stream
// (RFC 1951) from a fresh compressor state, so no dictionary crosses
// frames. The writer times each of its raw writes against what deflating
// as many bytes (at least 4 KiB) takes on this host, measured once at
// start-up; after three held-back writes in a row it deflates chunks of
// 4 KiB or more, and the first write that is not held back stops it.
// After a chunk that does not deflate it passes over the next seven. The receiver inflates the
// body whole before delivering any of it, into a buffer of its own that
// grows to at most 1 MiB: a stream that is malformed, cut short, followed
// by more bytes or longer than 1 MiB once inflated is refused.
//
// There is no switch and no negotiation; every frame of every channel
// takes these paths. Ciphertext length stops being plaintext length: see
// DESIGN.md §2.1 for what an observer learns.
//
// Errors are sticky per direction: after an authentication failure, an
// oversized length, a length word with both flags, or a malformed elided
// or deflated body every later Read returns the same error, and after a
// failed or short write to the underlying connection every later Write
// does — the stream behind such a failure is out of step and must not be
// parsed or extended.
//
// Memory: a Conn owns one send and one receive buffer, and an inflate
// buffer once it has received a deflated frame. A frame is sealed from
// the caller's slice (or its elided or deflated form, built in place)
// into the first and opened in place in the second; each grows (by
// doubling) to fit the largest frame seen and never beyond 4 + 1 MiB +
// 16 bytes, the inflate buffer never beyond 1 MiB. Elided zeros occupy
// none of them. Compressor and decompressor states (about 1.2 MB and
// 40 KB) are not a Conn's: every Conn in the process takes one from a
// free list of at most four while it deflates or inflates a frame.
package tunnel

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
// Handshake: the initiator sends "GVFSTUN2" ‖ clientNonce, the
// responder answers "GVFSTUN2" ‖ serverNonce; both nonces are 16
// random bytes. Any other magic (an older peer included) is
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
// Frame: len ‖ ciphertext ‖ tag, where len is the 4-byte big-endian
// plaintext length (≤ 1 MiB, checked before anything is buffered) and
// tag is 16 bytes. The GCM nonce is four zero bytes followed by the
// 64-bit big-endian frame sequence number of that direction, starting
// at 0; len is the additional data. The tag therefore binds content,
// length and position: tampering, replay, reordering and truncation
// all fail authentication. One Write of up to 1 MiB is one frame.
//
// Errors are sticky per direction: after an authentication failure or
// an oversized length every later Read returns the same error, and
// after a failed or short write to the underlying connection every
// later Write does — the stream behind such a failure is out of step
// and must not be parsed or extended.
//
// Memory: a Conn owns one send and one receive buffer. A frame is
// sealed from the caller's slice straight into the first and opened in
// place in the second; each grows (by doubling) to fit the largest
// frame seen and never beyond 4 + 1 MiB + 16 bytes.
package tunnel

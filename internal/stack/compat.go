package stack

import "flag"

// Declaration-only aliases and flags for benchmark/chain.go, which may
// not be edited in the PRs that folded the V2 names into ProxyOptions,
// StartProxy and ProxyFlags.Options and the file cache into the block
// cache. benchmark/chain.go is the only permitted user (CI greps for any
// other); delete this file when the benchmark is re-pointed at the real
// names and stops passing -filecache-dir.

// ProxyOptionsV2 is ProxyOptions.
type ProxyOptionsV2 = ProxyOptions

// StartProxyV2 is StartProxy.
var StartProxyV2 = StartProxy

// OptionsV2 is Options.
func (f *ProxyFlags) OptionsV2() (ProxyOptionsV2, error) { return f.Options() }

// ignoredFlag is parsed and ignored: benchmark/chain.go still passes it,
// and a fetched file now lives in the block cache.
const ignoredFlag = "filecache-dir"

func bindCompatFlags(fs *flag.FlagSet) {
	fs.String(ignoredFlag, "", "ignored; kept for benchmark/chain.go")
}

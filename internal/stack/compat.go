package stack

// Declaration-only aliases for benchmark/chain.go, which may not be
// edited in the PR that folded the V2 names into ProxyOptions,
// StartProxy and ProxyFlags.Options. benchmark/chain.go is the only
// permitted user (CI greps for any other); delete this file when the
// benchmark is re-pointed at the real names.

// ProxyOptionsV2 is ProxyOptions.
type ProxyOptionsV2 = ProxyOptions

// StartProxyV2 is StartProxy.
var StartProxyV2 = StartProxy

// OptionsV2 is Options.
func (f *ProxyFlags) OptionsV2() (ProxyOptionsV2, error) { return f.Options() }

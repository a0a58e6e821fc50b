module gvfs/benchmark

go 1.22

require gvfs v0.0.0

replace gvfs => ../

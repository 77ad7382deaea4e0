module splitfs/cmd/splitperf

go 1.24

require splitfs v0.0.0

replace splitfs => ../..

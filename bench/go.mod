// The benchmark is a module of its own so that the product's
// `go build ./... && go test ./...` neither builds nor depends on it. Its
// import path sits under pdr/, which is what lets bench/layers import
// pdr/internal/...; the end-to-end harness imports nothing from the product.
module pdr/bench

go 1.22

require pdr v0.0.0

replace pdr => ../

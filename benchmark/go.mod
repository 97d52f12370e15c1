// The benchmark is its own module so that building it never changes the
// repository's build files; it imports the code under test through the
// replace below and is run with `go run -C benchmark .` from the root.
module scionmpr/benchmark

go 1.22

require scionmpr v0.0.0

replace scionmpr => ../

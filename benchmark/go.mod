module smiler/benchmark

go 1.22

require smiler v0.0.0

replace smiler => ../

module locec/benchmark

go 1.24

require locec v0.0.0

replace locec => ../

module agcm/benchmark

go 1.22

require agcm v0.0.0

replace agcm => ../

module mixen/benchmark

go 1.22

require mixen v0.0.0

replace mixen => ../

module upskiplist/benchmark

go 1.22

require upskiplist v0.0.0

replace upskiplist => ../

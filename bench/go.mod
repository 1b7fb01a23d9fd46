module github.com/hpcio/das/bench

go 1.22

require github.com/hpcio/das v0.0.0

replace github.com/hpcio/das => ../

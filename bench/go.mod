module icdb/bench

go 1.24

require icdb v0.0.0

replace icdb => ../

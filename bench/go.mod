module cinnamon/bench

go 1.22

require cinnamon v0.0.0

replace cinnamon => ../

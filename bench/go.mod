module genomedsm/bench

go 1.22

require genomedsm v0.0.0

replace genomedsm => ../

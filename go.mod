module ggpdes

go 1.23

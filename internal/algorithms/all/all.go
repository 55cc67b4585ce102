// Package all is empty; it exists only so bench/workloads.go's blank import keeps compiling.
package all

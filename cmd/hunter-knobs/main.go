// Command hunter-knobs prints a dialect's knob catalog: domain, default,
// restart requirement and description of every knob the tuner can touch —
// the reference a DBA consults when writing Rules.
//
//	hunter-knobs -db mysql
//	hunter-knobs -db postgres -restart-only
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/hunter-cdb/hunter"
	"github.com/hunter-cdb/hunter/internal/cli"
)

func main() {
	var (
		db          = flag.String("db", "mysql", "database dialect: mysql | postgres")
		restartOnly = flag.Bool("restart-only", false, "list only restart-required knobs")
	)
	flag.Parse()

	dialect, err := cli.ParseDialect(*db)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	specs := hunter.Catalog(dialect)
	fmt.Printf("%-40s %-8s %-9s %-22s %s\n", "KNOB", "KIND", "RESTART", "DEFAULT", "DESCRIPTION")
	for _, s := range specs {
		if *restartOnly && !s.RestartRequired {
			continue
		}
		restart := ""
		if s.RestartRequired {
			restart = "restart"
		}
		fmt.Printf("%-40s %-8s %-9s %-22s %s\n",
			s.Name, s.Kind, restart, s.FormatValue(s.Default), s.Description)
	}
}

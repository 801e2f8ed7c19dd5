package beta
